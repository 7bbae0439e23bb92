"""Verdicts for the classification statements, with reason traces.

Each classification is a disjunction or conjunction of clauses over the join
decomposition of the defining graph and the central-quotient flags of the
vertex groups.  Verdicts are tri-valued: an opaque label can leave a clause
undecided, but a satisfied clause of a disjunction decides the verdict
regardless of unknowns elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    JoinDecomposition,
    SimplicialGraph,
    is_complete,
    is_molecular,
    join_decompose,
    join_pairs_partition,
    matches_complete_join_pairs,
)
from .groups import NO, UNKNOWN, YES, GpkitError, NonFiniteLabel
from .labeled import LabeledGraph

SQ_UNIVERSAL = "sq_universal"
MANY_QUASIMORPHISMS = "many_quasimorphisms"
NOT_BOUNDEDLY_GENERATED = "not_boundedly_generated"
ADMISSIBLE_PROPERTIES = (SQ_UNIVERSAL, MANY_QUASIMORPHISMS, NOT_BOUNDEDLY_GENERATED)

_PROPERTY_TEXT = {
    SQ_UNIVERSAL: "SQ-universality",
    MANY_QUASIMORPHISMS: "many quasimorphisms",
    NOT_BOUNDEDLY_GENERATED: "failure of bounded generation",
}


class NotMolecular(GpkitError):
    """The molecular-graph verdict applies to molecular graphs, single vertices
    and single edges only."""


def tri_not(v: str) -> str:
    return {YES: NO, NO: YES, UNKNOWN: UNKNOWN}[v]


def tri_or(values) -> str:
    values = set(values)
    return YES if YES in values else UNKNOWN if UNKNOWN in values else NO


def tri_and(values) -> str:
    values = set(values)
    return NO if NO in values else UNKNOWN if UNKNOWN in values else YES


@dataclass(frozen=True)
class Verdict:
    value: str
    reasons: tuple[str, ...]


@dataclass(frozen=True)
class EquivalenceSummary:
    """The six-way equivalence on an all-finite instance.

    entries holds the six statements in order; by the equivalence they all
    carry the same truth value, the negation of virtually_abelian.  The graph
    product is virtually abelian exactly when every core vertex has order 2 and
    the core is a join of a clique with non-adjacent pairs.
    """

    entries: tuple[bool, bool, bool, bool, bool, bool]
    virtually_abelian: bool


@dataclass(frozen=True)
class RacgLargeness:
    """Largeness of the order-2-labeled graph product of a graph, with the
    explicit direct-sum witness when it fails."""

    large: bool
    decomposition: tuple | None


@dataclass(frozen=True)
class ClassificationReport:
    join: JoinDecomposition
    property_t: Verdict
    sq_universal: Verdict
    many_quasimorphisms: Verdict
    boundedly_generated: Verdict
    equivalences: EquivalenceSummary | None
    aut_property_t: Verdict | None
    molecular_property_t: Verdict | None
    racg_largeness: RacgLargeness | None
    notes: tuple[str, ...]


def _flag_for(flags, prop: str) -> str:
    return {
        SQ_UNIVERSAL: flags.sq_universal,
        MANY_QUASIMORPHISMS: flags.many_quasimorphisms,
        NOT_BOUNDEDLY_GENERATED: tri_not(flags.boundedly_generated),
    }[prop]


def classify_T(ctx: LabeledGraph) -> Verdict:
    """Property (T) for the conjugating-automorphism group: the graph must be
    complete and every central quotient must have property (T)."""
    g = ctx.graph
    every = (1 << len(g.vertices)) - 1
    # the first vertex that misses another misses only later ones
    i = next((i for i, m in enumerate(g.masks) if m | 1 << i != every), None)
    if i is not None:
        missing = every & ~g.masks[i] & ~(1 << i)
        u, w = g.vertices[i], g.vertices[(missing & -missing).bit_length() - 1]
        return Verdict(NO, (
            f"complete-graph criterion fails: vertices {u!r} and {w!r} "
            "are non-adjacent, so the group acts fixed-point freely on a tree",
        ))
    vals, reasons = [], ["complete-graph criterion holds"]
    for v in g.vertices:
        flag = ctx.label(v).flags.kazhdan_t
        vals.append(flag)
        if flag != YES:
            reasons.append(f"central quotient at vertex {v!r}: property (T) {flag}")
    value = tri_and(vals)
    if value == YES:
        reasons.append("every central quotient has property (T)")
    return Verdict(value, tuple(reasons))


def classify_vastness(ctx: LabeledGraph, prop: str, assume_admissible: bool = False) -> Verdict:
    """Disjunction deciding a vastness property of the conjugating-automorphism
    group: a core vertex not labeled by the order-2 group, or a cone vertex
    whose central quotient has the property, or a core that is not a join of a
    clique with non-adjacent pairs.

    Properties outside the three admissible ones require assume_admissible;
    the caller then vouches for the closure conditions the schema needs.
    """
    if prop not in ADMISSIBLE_PROPERTIES and not assume_admissible:
        raise GpkitError(f"property {prop!r} is not one of {ADMISSIBLE_PROPERTIES}; "
                         "pass assume_admissible to use it anyway")
    return _vastness(ctx, join_decompose(ctx.graph), prop)


def _vastness(ctx: LabeledGraph, jd: JoinDecomposition, prop: str) -> Verdict:
    text = _PROPERTY_TEXT.get(prop, prop)
    reasons = []
    clause_vals = []

    non_z2_vals = []
    for v in jd.core:
        d = ctx.label(v)
        val = UNKNOWN if d.kind == "opaque" else NO if d.order == 2 else YES
        non_z2_vals.append(val)
        if val == YES:
            reasons.append(f"core vertex {v!r} is not labeled by the order-2 group")
            break
    clause_vals.append(tri_or(non_z2_vals))

    cone_vals = []
    for v in jd.cone:
        if prop in ADMISSIBLE_PROPERTIES:
            val = _flag_for(ctx.label(v).flags, prop)
        else:
            # admissible properties fail for finite groups; only opaque labels stay open
            val = UNKNOWN if ctx.label(v).kind == "opaque" else NO
        cone_vals.append(val)
        if val == YES:
            reasons.append(f"cone vertex {v!r} has central quotient with {text}")
            break
    clause_vals.append(tri_or(cone_vals))

    # cone vertices are isolated in the complement, so the core is a
    # pairs-join exactly when the whole graph is
    pairs_join = matches_complete_join_pairs(ctx.graph)
    clause_vals.append(NO if pairs_join else YES)
    if not pairs_join:
        reasons.append("core is not a join of a clique with non-adjacent pairs")

    value = tri_or(clause_vals)
    if value == NO:
        reasons.append("all core vertices are order-2, no cone quotient has the property, "
                       "and the core is a join of a clique with non-adjacent pairs")
    elif value == UNKNOWN:
        reasons.append("opaque labels leave a deciding clause open")
    return Verdict(value, tuple(reasons))


def racg_large(g: SimplicialGraph) -> RacgLargeness:
    """Largeness of the all-order-2 graph product; when it fails, extract the
    explicit decomposition into order-2 factors and infinite dihedral factors."""
    blocks = join_pairs_partition(g)
    if blocks is None:
        return RacgLargeness(True, None)
    return RacgLargeness(False, tuple(("Z2" if len(b) == 1 else "Dinf", b) for b in blocks))


def _require_finite(ctx: LabeledGraph) -> None:
    for v in ctx.graph.vertices:
        if ctx.label(v).order is None:
            raise NonFiniteLabel(f"vertex {v!r} is not labeled by a finite group")


def classify_equivalences(ctx: LabeledGraph) -> EquivalenceSummary:
    """Six-way equivalence for all-finite vertex groups, decided by the
    label/join criterion of the first entry."""
    _require_finite(ctx)
    return _equivalences(ctx, join_decompose(ctx.graph))


def _equivalences(ctx: LabeledGraph, jd: JoinDecomposition) -> EquivalenceSummary:
    has_non_z2 = any(ctx.label(v).order != 2 for v in jd.core)
    virtually_abelian = not has_non_z2 and matches_complete_join_pairs(ctx.graph)
    return EquivalenceSummary((not virtually_abelian,) * 6, virtually_abelian)


def classify_aut_t(ctx: LabeledGraph) -> Verdict:
    """With finite vertex groups, the full automorphism group has property (T)
    exactly when the graph product itself is finite, i.e. the graph is complete."""
    _require_finite(ctx)
    if is_complete(ctx.graph):
        return Verdict(YES, ("graph complete with finite vertex groups: "
                             "the graph product is finite",))
    return Verdict(NO, ("graph not complete: the graph product is infinite",))


def classify_molecular(ctx: LabeledGraph) -> Verdict:
    """Property (T) verdict on the molecular graph class (plus single vertices
    and edges): only a single vertex or edge with (T) quotients passes."""
    g = ctx.graph
    n = len(g.vertices)
    tiny = n == 1 or (n == 2 and g.has_edge(*g.vertices))
    if not tiny and not is_molecular(g):
        raise NotMolecular("graph is neither molecular nor a single vertex or single edge")
    if not tiny:
        return Verdict(NO, ("molecular graph with more than one edge: no property (T)",))
    value = tri_and(ctx.label(v).flags.kazhdan_t for v in g.vertices)
    return Verdict(value, ({
        YES: "single vertex or edge with property (T) central quotients",
        NO: "some central quotient lacks property (T)",
        UNKNOWN: "property (T) of some central quotient is unknown",
    }[value],))


def classify(ctx: LabeledGraph) -> ClassificationReport:
    """Full report: the headline verdicts plus the specialized statements
    that apply to the instance."""
    jd = join_decompose(ctx.graph)
    notes = []
    if any(d.kind == "opaque" for d in ctx.labels):
        notes.append("opaque labels: finite generation and quotient flags are taken on trust")

    property_t = classify_T(ctx)
    sq = _vastness(ctx, jd, SQ_UNIVERSAL)
    qh = _vastness(ctx, jd, MANY_QUASIMORPHISMS)
    nbg = _vastness(ctx, jd, NOT_BOUNDEDLY_GENERATED)
    bounded = Verdict(tri_not(nbg.value), nbg.reasons)

    all_finite = all(d.order is not None for d in ctx.labels)
    equivalences = _equivalences(ctx, jd) if all_finite else None
    aut_t = classify_aut_t(ctx) if all_finite else None
    if not all_finite:
        notes.append("equivalence summary and finiteness verdict need all-finite labels")

    try:
        molecular = classify_molecular(ctx)
    except NotMolecular:
        molecular = None

    all_z2 = all(d.order == 2 for d in ctx.labels)
    largeness = racg_large(ctx.graph) if all_z2 else None

    return ClassificationReport(
        join=jd,
        property_t=property_t,
        sq_universal=sq,
        many_quasimorphisms=qh,
        boundedly_generated=bounded,
        equivalences=equivalences,
        aut_property_t=aut_t,
        molecular_property_t=molecular,
        racg_largeness=largeness,
        notes=tuple(notes),
    )

