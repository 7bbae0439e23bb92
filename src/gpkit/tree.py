"""The tree of a free product of two vertex groups, and certificates for the
action on it.

Vertices of the tree are the left cosets of the two factors.  A coset g*A is
stored by the canonical representative obtained by stripping a trailing
A-syllable from the normal form of g, so coset equality is word equality.
Distances come from the alternating length of the relative representative;
an independent breadth-first search cross-checks this in the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import SimplicialGraph
from .groups import (
    AUTOMORPHISM_ORDER_BOUND,
    GpkitError,
    OrderTooLarge,
    automorphisms,
    concrete_table,
    identity_perm,
    minimal_generating_set,
    order_of,
    subgroup_closure,
)
from .labeled import LabeledGraph
from .words import (
    IDENTITY,
    BadSyllable,
    NormalWord,
    SameVertex,
    Syllable,
    VerticesAdjacent,
    invert,
    multiply,
    normal_form,
)


class NotGenerating(GpkitError):
    """A supplied generator list spans a proper subgroup of its factor."""

    def __init__(self, side):
        self.side = side
        super().__init__(f"generators for vertex {side!r} do not generate its group")


class IdentityGenerator(GpkitError):
    """Generator lists must consist of non-identity elements."""


@dataclass(frozen=True)
class FreeProduct:
    """Two non-adjacent labeled vertices, seen as the free product of their groups."""

    ctx: LabeledGraph

    def __post_init__(self):
        if len(self.ctx.graph.vertices) != 2:
            raise ValueError("a free product context has exactly two vertices")
        if self.ctx.graph.edges:
            raise ValueError("the two vertices must be non-adjacent")

    @property
    def sides(self) -> tuple[str, str]:
        return self.ctx.graph.vertices

    def other(self, side: str) -> str:
        a, b = self.sides
        return b if side == a else a

    def factor_table(self, side: str):
        return concrete_table(self.ctx.label(side))


def free_product(ctx: LabeledGraph, u: str, v: str) -> FreeProduct:
    """Extract the free-product context of two non-adjacent vertices of ctx."""
    if u == v:
        raise SameVertex(f"need two distinct vertices, got {u!r} twice")
    if u not in ctx.graph._order or v not in ctx.graph._order:
        missing = u if u not in ctx.graph._order else v
        raise BadSyllable(missing, 0, "unknown vertex")
    if ctx.graph.has_edge(u, v):
        raise VerticesAdjacent(f"vertices {u!r} and {v!r} are adjacent")
    sub = SimplicialGraph((u, v), frozenset())
    return FreeProduct(LabeledGraph(sub, (ctx.label(u), ctx.label(v))))


@dataclass(frozen=True)
class TreeVertex:
    """Coset of the `side` factor, in canonical representative form."""

    side: str
    rep: NormalWord

    def sort_key(self, fp: FreeProduct):
        return (
            fp.sides.index(self.side),
            len(self.rep),
            tuple((fp.ctx.graph.index(s.vertex), s.element) for s in self.rep.syllables),
        )


@dataclass(frozen=True)
class AxisData:
    """Translation length and a fundamental segment for one element.

    Elliptic elements get length 0 and a single fixed vertex as segment.
    """

    element: NormalWord
    translation_length: int
    segment: tuple[TreeVertex, ...]


@dataclass(frozen=True)
class WpdCertificate:
    """Result of the finite-stabilizer check along the axis of g.

    survivors lists the automorphism pairs of the two factors whose extension
    fixes all four recorded vertices; the certificate is valid when only the
    identity pair survives.
    """

    g: NormalWord
    translation_length: int
    axis_vertices: tuple[TreeVertex, TreeVertex, TreeVertex, TreeVertex]
    stabilizer_pairs_checked: int
    survivors: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @property
    def valid(self) -> bool:
        if len(self.survivors) != 1:
            return False
        alpha, beta = self.survivors[0]
        return alpha == identity_perm(len(alpha)) and beta == identity_perm(len(beta))


def base(fp: FreeProduct, side: str) -> TreeVertex:
    return TreeVertex(side, IDENTITY)


def vertex_of(fp: FreeProduct, g: NormalWord, side: str) -> TreeVertex:
    """Canonical vertex of the coset g * (side factor)."""
    w = normal_form(g.syllables, fp.ctx)
    if w.syllables and w.syllables[-1].vertex == side:
        w = NormalWord(w.syllables[:-1])
    return TreeVertex(side, w)


def act(fp: FreeProduct, g: NormalWord, x: TreeVertex) -> TreeVertex:
    """Left translation of the coset x by g."""
    return vertex_of(fp, multiply(g, x.rep, fp.ctx), x.side)


def act_auto(fp: FreeProduct, alpha, beta, x: TreeVertex) -> TreeVertex:
    """Image of x under the automorphism extending (alpha, beta) letterwise.

    alpha and beta are permutations of the element indices of the first and
    second factor, as produced by groups.automorphisms.
    """
    side_a, side_b = fp.sides
    mapped = [
        Syllable(s.vertex, alpha[s.element] if s.vertex == side_a else beta[s.element])
        for s in x.rep.syllables
    ]
    return vertex_of(fp, normal_form(mapped, fp.ctx), x.side)


def tree_distance(fp: FreeProduct, x: TreeVertex, y: TreeVertex) -> int:
    """Graph distance between two cosets.

    Translating by the inverse of x's representative moves x to a base vertex;
    the distance is then the alternating length of the relative representative,
    plus one when its first syllable already lies on the far side of the base.
    """
    rel = multiply(invert(x.rep, fp.ctx), y.rep, fp.ctx)
    target = vertex_of(fp, rel, y.side)
    k = len(target.rep)
    if k == 0:
        return 0 if x.side == y.side else 1
    return k + (0 if target.rep.syllables[0].vertex == x.side else 1)


def adjacent(fp: FreeProduct, x: TreeVertex, y: TreeVertex) -> bool:
    return tree_distance(fp, x, y) == 1


def _cyclic_reduce(fp: FreeProduct, g: NormalWord):
    """Return (p, c) with g = p c p^-1 and c cyclically reduced."""
    p = IDENTITY
    c = g
    while len(c) >= 2 and c.syllables[0].vertex == c.syllables[-1].vertex:
        head = NormalWord((c.syllables[0],))
        p = multiply(p, head, fp.ctx)
        c = multiply(multiply(invert(head, fp.ctx), c, fp.ctx), head, fp.ctx)
    return p, c


def translation_data(fp: FreeProduct, g: NormalWord) -> AxisData:
    """Translation length of g with a fundamental segment of its axis.

    A cyclically reduced element translates by its alternating length along
    the path through its prefix cosets; conjugating carries that segment to
    the axis of g.  Elements conjugate into a factor fix a vertex.
    """
    g = normal_form(g.syllables, fp.ctx)
    p, c = _cyclic_reduce(fp, g)
    if len(c) <= 1:
        side = c.syllables[0].vertex if c.syllables else fp.sides[0]
        return AxisData(g, 0, (vertex_of(fp, p, side),))
    sylls = c.syllables
    segment = []
    prefix = p
    for s in sylls:
        segment.append(vertex_of(fp, prefix, s.vertex))
        prefix = multiply(prefix, NormalWord((s,)), fp.ctx)
    segment.append(vertex_of(fp, prefix, sylls[0].vertex))
    return AxisData(g, len(sylls), tuple(segment))


def _is_factor_element(fp: FreeProduct, w: NormalWord, side: str) -> bool:
    return len(w) == 1 and w.syllables[0].vertex == side


def ball_elements(fp: FreeProduct, radius: int):
    """All group elements of syllable length <= radius (finite factors only).

    Alternating words over the two factors are already in normal form, so they
    are generated directly.
    """
    nontrivial = {side: range(1, fp.factor_table(side).order) for side in fp.sides}
    out = [IDENTITY]
    level = [()]
    for _ in range(radius):
        nxt = []
        for word in level:
            for v in fp.sides:
                if word and word[-1].vertex == v:
                    continue
                for e in nontrivial[v]:
                    nxt.append(word + (Syllable(v, e),))
        out.extend(NormalWord(w) for w in nxt)
        level = nxt
    return out


def malnormality_check(fp: FreeProduct, side: str, radius: int) -> bool:
    """Exhaustively confirm the factor on `side` meets its conjugates trivially.

    Scans every g of syllable length <= radius: conjugates of the chosen factor
    by g outside it, and conjugates of the other factor by every g, must not
    hit a non-trivial element of the chosen factor.
    """
    other = fp.other(side)
    ta = fp.factor_table(side)
    tb = fp.factor_table(other)
    own = [NormalWord((Syllable(side, e),)) for e in range(1, ta.order)]
    foreign = [NormalWord((Syllable(other, e),)) for e in range(1, tb.order)]
    for g in ball_elements(fp, radius):
        g_inv = invert(g, fp.ctx)
        in_own_factor = g.is_identity or _is_factor_element(fp, g, side)
        if not in_own_factor:
            for a in own:
                conj = multiply(multiply(g, a, fp.ctx), g_inv, fp.ctx)
                if _is_factor_element(fp, conj, side):
                    return False
        for b in foreign:
            conj = multiply(multiply(g, b, fp.ctx), g_inv, fp.ctx)
            if _is_factor_element(fp, conj, side):
                return False
    return True


def wpd_certificate(fp: FreeProduct, gens_a=None, gens_b=None) -> WpdCertificate:
    """Build the alternating element from the generator lists and certify that
    only the identity automorphism pair fixes the four axis vertices.

    Generator lists default to the minimal generating sets of the factors and
    are padded to equal length by cycling the shorter list.
    """
    side_a, side_b = fp.sides
    for side in fp.sides:
        n = order_of(fp.ctx.label(side))
        if n is not None and n > AUTOMORPHISM_ORDER_BOUND:
            raise OrderTooLarge(n, AUTOMORPHISM_ORDER_BOUND)
    ta = fp.factor_table(side_a)
    tb = fp.factor_table(side_b)
    gens_a = list(gens_a) if gens_a is not None else list(minimal_generating_set(ta))
    gens_b = list(gens_b) if gens_b is not None else list(minimal_generating_set(tb))
    for side, gens, table in ((side_a, gens_a, ta), (side_b, gens_b, tb)):
        if not gens:
            raise NotGenerating(side)
        if 0 in gens:
            raise IdentityGenerator(f"identity listed as a generator for vertex {side!r}")
        bad = next((e for e in gens if not 0 < e < table.order), None)
        if bad is not None:
            raise BadSyllable(side, bad, "generator outside the vertex group")
        if len(subgroup_closure(table, gens)) != table.order:
            raise NotGenerating(side)
    n = max(len(gens_a), len(gens_b))
    gens_a = [gens_a[i % len(gens_a)] for i in range(n)]
    gens_b = [gens_b[i % len(gens_b)] for i in range(n)]
    sylls = []
    for s, r in zip(gens_a, gens_b):
        sylls.append(Syllable(side_a, s))
        sylls.append(Syllable(side_b, r))
    g = normal_form(sylls, fp.ctx)

    axis = translation_data(fp, g)
    four = (
        base(fp, side_a),
        base(fp, side_b),
        act(fp, g, base(fp, side_a)),
        act(fp, g, base(fp, side_b)),
    )
    if axis.translation_length == 0:
        raise AssertionError("alternating generator word cannot be elliptic")
    for x in four:
        if tree_distance(fp, x, act(fp, g, x)) != axis.translation_length:
            raise AssertionError("expected vertex off the axis; construction broken")

    auts_a = automorphisms(ta)
    auts_b = automorphisms(tb)
    survivors = []
    for alpha, beta in itertools.product(auts_a, auts_b):
        if all(act_auto(fp, alpha, beta, x) == x for x in four):
            survivors.append((alpha, beta))
    return WpdCertificate(
        g=g,
        translation_length=axis.translation_length,
        axis_vertices=four,
        stabilizer_pairs_checked=len(auts_a) * len(auts_b),
        survivors=tuple(survivors),
    )
