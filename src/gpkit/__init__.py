"""Decision procedures and tree-action certificates for graph products of groups."""

from .graphs import (
    JoinDecomposition,
    SilWitness,
    SimplicialGraph,
    find_sil,
    graph,
    is_complete,
    is_molecular,
    join_decompose,
    join_pairs_partition,
    matches_complete_join_pairs,
)
from .groups import (
    GpkitError,
    GroupDescriptor,
    MultTable,
    NotAGroup,
    QuotientFlags,
    automorphisms,
    cyclic,
    cyclic_table,
    infinite_cyclic,
    opaque,
    quotient_flags,
    table_group,
    validate,
    z2,
)
from .labeled import LabeledGraph, labeled, uniform
from .words import (
    IDENTITY,
    BadSyllable,
    NormalWord,
    Syllable,
    invert,
    multiply,
    normal_form,
    retract,
    word_of,
)

__all__ = [
    "BadSyllable", "GpkitError", "GroupDescriptor", "IDENTITY", "JoinDecomposition",
    "LabeledGraph", "MultTable", "NormalWord", "NotAGroup", "QuotientFlags",
    "SilWitness", "SimplicialGraph", "Syllable", "automorphisms", "cyclic",
    "cyclic_table", "find_sil", "graph", "infinite_cyclic", "invert", "is_complete",
    "is_molecular", "join_decompose", "join_pairs_partition", "labeled",
    "matches_complete_join_pairs", "multiply", "normal_form", "opaque",
    "quotient_flags", "retract", "table_group", "uniform", "validate",
    "word_of", "z2",
]
