"""Decision procedures and tree-action certificates for graph products of groups."""

from .graphs import (
    JoinDecomposition,
    SilWitness,
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
    infinite_cyclic,
    opaque,
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
)

__all__ = [
    "BadSyllable", "GpkitError", "GroupDescriptor", "IDENTITY", "JoinDecomposition",
    "LabeledGraph", "MultTable", "NormalWord", "NotAGroup", "QuotientFlags",
    "SilWitness", "Syllable", "automorphisms", "cyclic", "find_sil", "graph",
    "infinite_cyclic", "invert", "is_complete", "is_molecular", "join_decompose",
    "join_pairs_partition", "labeled", "matches_complete_join_pairs", "multiply",
    "normal_form", "opaque", "retract", "table_group", "uniform",
    "validate", "z2",
]
