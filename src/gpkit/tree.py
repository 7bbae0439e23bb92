"""The tree of a free product of two vertex groups, and certificates for the
action on it.

Vertices of the tree are the left cosets of the two factors (Serre, Trees,
1980).  A coset g*A is stored by the canonical representative obtained by
stripping a trailing A-syllable from the normal form of g, so coset equality is
word equality.  Distances come from the alternating length of the relative
representative; an independent breadth-first search cross-checks this in the
test suite.

Every element of A*B has exactly one alternating word with no identity letter
(the normal form theorem for free products: Lyndon-Schupp, Combinatorial Group
Theory, 1977, Thm IV.1.2).  So this module computes on alternating tuples of
(side index, element) ints, not through the general normal form: the product
u*v is the seam product, which joins u and v and only looks where they meet.
While the last letter of u and the first of v lie on one side they multiply;
an identity product cancels both and the walk goes on, anything else merges
into one letter and ends it.  NormalWords are converted at the API edge.  The
malnormality scan walks the ball once, depth first, and conjugates each letter
of both factors on indices; the side a conjugate lands on decides which
factor it tests, so one pass covers both.  Its memory grows with the radius
and not with the ball; its work is bounded by MAX_SCAN_WORK.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .graphs import graph
from .groups import (
    GpkitError,
    automorphisms,
    identity_perm,
    minimal_generating_set,
    subgroup_closure,
)
from .labeled import LabeledGraph
from .words import IDENTITY, BadSyllable, NormalWord, Syllable, _codes, require_free_pair


class NotGenerating(GpkitError):
    """A supplied generator list spans a proper subgroup of its factor."""

    def __init__(self, side):
        self.side = side
        super().__init__(f"generators for vertex {side!r} do not generate its group")


class IdentityGenerator(GpkitError):
    """Generator lists must consist of non-identity elements."""


MAX_SCAN_WORK = 5_000_000
"""Most conjugates one malnormality scan may test: (ball size) * (|A| + |B| - 2)."""


class ScanTooLarge(GpkitError):
    """A malnormality scan whose estimated work is past MAX_SCAN_WORK."""

    def __init__(self, radius, work, exact, fits):
        need = f"{work:,}" if exact else f"more than {work:,}"
        within = f"the largest radius within it is {fits}" if fits >= 0 else "no radius fits"
        super().__init__(f"malnormality scan at radius {radius} needs {need} conjugates, "
                         f"over the bound of {MAX_SCAN_WORK:,}; {within}")


@dataclass(frozen=True)
class FreeProduct:
    """Two non-adjacent labeled vertices, seen as the free product of their groups."""

    ctx: LabeledGraph

    def __post_init__(self):
        if len(self.ctx.graph.vertices) != 2:
            raise GpkitError("a free product context has exactly two vertices")
        if self.ctx.graph.has_edge(*self.ctx.graph.vertices):
            raise GpkitError("the two vertices must be non-adjacent")

    @property
    def sides(self) -> tuple[str, str]:
        return self.ctx.graph.vertices

    def factor(self, side: str):
        """The vertex group at `side`; GpkitError unless it is finite."""
        f = self.ctx.label(side)
        if f.order is None:
            raise GpkitError(f"descriptor kind {f.kind!r} has no finite table")
        return f

    @cached_property
    def _arith(self):
        """Products and inverses of the two factors by side index: (mul, inv),
        each a pair of functions."""
        labels = self.ctx.labels
        return tuple(f.mul for f in labels), tuple(f.inv for f in labels)


def free_product(ctx: LabeledGraph, u: str, v: str) -> FreeProduct:
    """Extract the free-product context of two non-adjacent vertices of ctx."""
    require_free_pair(ctx, u, v)
    sub = graph((u, v))
    return FreeProduct(LabeledGraph(sub, (ctx.label(u), ctx.label(v))))


@dataclass(frozen=True)
class TreeVertex:
    """Coset of the `side` factor, in canonical representative form."""

    side: str
    rep: NormalWord


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


# ---------------------------------------------------------------------------
# Alternating words: tuples of (side index, element) pairs, no identity letters

def _seam_product(fp: FreeProduct, u: tuple, v: tuple) -> tuple:
    """u * v: letters meeting at the seam on one side multiply; an identity
    product cancels both and the walk goes on, any other merges and ends it."""
    mul = fp._arith[0]
    i, j = len(u), 0
    while i and j < len(v) and u[i - 1][0] == v[j][0]:
        s = v[j][0]
        e = mul[s](u[i - 1][1], v[j][1])
        i -= 1
        j += 1
        if e:
            return u[:i] + ((s, e),) + v[j:]
    return u[:i] + v[j:]


def _inverse(fp: FreeProduct, u: tuple) -> tuple:
    inv = fp._arith[1]
    return tuple((s, inv[s](e)) for s, e in reversed(u))


def _letters(fp: FreeProduct, w: NormalWord) -> tuple:
    """w as an alternating word: its codes in fp's context, checked unless made there."""
    return _codes(w, fp.ctx)


def _word(fp: FreeProduct, u: tuple) -> NormalWord:
    names = fp.sides
    return NormalWord(tuple(Syllable(names[s], e) for s, e in u))


def _strip(fp: FreeProduct, u: tuple, side: str) -> tuple:
    """Representative of the coset u * (side factor): u less a trailing side letter."""
    return u[:-1] if u and fp.sides[u[-1][0]] == side else u


def _vertex(fp: FreeProduct, u: tuple, side: str) -> TreeVertex:
    return TreeVertex(side, _word(fp, _strip(fp, u, side)))


def act(fp: FreeProduct, g: NormalWord, x: TreeVertex) -> TreeVertex:
    """Left translation of the coset x by g."""
    return _vertex(fp, _seam_product(fp, _letters(fp, g), _letters(fp, x.rep)), x.side)


def act_auto(fp: FreeProduct, alpha, beta, x: TreeVertex) -> TreeVertex:
    """Image of x under the automorphism extending (alpha, beta) letterwise.

    alpha and beta are permutations of the element indices of the first and
    second factor, as produced by groups.automorphisms.  They fix only the
    identity, so the image of the alternating representative alternates too
    and is the representative of the image.
    """
    side_a = fp.sides[0]
    return TreeVertex(x.side, NormalWord(tuple(
        Syllable(s.vertex, alpha[s.element] if s.vertex == side_a else beta[s.element])
        for s in x.rep.syllables
    )))


def tree_distance(fp: FreeProduct, x: TreeVertex, y: TreeVertex) -> int:
    """Graph distance between two cosets.

    Translating by the inverse of x's representative moves x to a base vertex;
    the distance is then the alternating length of the relative representative,
    plus one when its first syllable already lies on the far side of the base.
    """
    rel = _seam_product(fp, _inverse(fp, _letters(fp, x.rep)), _letters(fp, y.rep))
    rel = _strip(fp, rel, y.side)
    if not rel:
        return 0 if x.side == y.side else 1
    return len(rel) + (0 if fp.sides[rel[0][0]] == x.side else 1)


def _cyclic_reduce(fp: FreeProduct, g: tuple):
    """Return (p, c) with g = p c p^-1 and c cyclically reduced."""
    p = ()
    c = g
    while len(c) >= 2 and c[0][0] == c[-1][0]:
        head = c[:1]
        p = _seam_product(fp, p, head)
        c = _seam_product(fp, _seam_product(fp, _inverse(fp, head), c), head)
    return p, c


def translation_data(fp: FreeProduct, g: NormalWord) -> AxisData:
    """Translation length of g with a fundamental segment of its axis.

    A cyclically reduced element translates by its alternating length along
    the path through its prefix cosets; conjugating carries that segment to
    the axis of g.  Elements conjugate into a factor fix a vertex.
    """
    g = _letters(fp, g)
    p, c = _cyclic_reduce(fp, g)
    if len(c) <= 1:
        side = fp.sides[c[0][0]] if c else fp.sides[0]
        return AxisData(_word(fp, g), 0, (_vertex(fp, p, side),))
    segment = []
    prefix = p
    for letter in c:
        segment.append(_vertex(fp, prefix, fp.sides[letter[0]]))
        prefix = _seam_product(fp, prefix, (letter,))
    segment.append(_vertex(fp, prefix, fp.sides[c[0][0]]))
    return AxisData(_word(fp, g), len(c), tuple(segment))


# ---------------------------------------------------------------------------
# Balls and the malnormality scan

def _orders(fp: FreeProduct) -> tuple[int, int]:
    """Orders of the two factors; GpkitError unless both are finite."""
    return tuple(fp.factor(side).order for side in fp.sides)


def _ball(orders, radius: int):
    """Every alternating word of syllable length <= radius, depth first.

    Yields one list of (side index, element) letters, changed in place between
    yields, so memory grows with the radius and not with the ball.
    """
    letters = [[(s, e) for e in range(orders[s])] for s in (0, 1)]
    word = []
    yield word
    if radius < 1:
        return
    word.append(letters[0][1])
    while word:
        yield word
        if len(word) < radius:
            word.append(letters[1 - word[-1][0]][1])
            continue
        while word:
            s, e = word[-1]
            if e + 1 < orders[s]:
                word[-1] = letters[s][e + 1]
                break
            if s == 0 and len(word) == 1:
                word[-1] = letters[1][1]
                break
            word.pop()


def ball_elements(fp: FreeProduct, radius: int):
    """All group elements of syllable length <= radius (finite factors only).

    Alternating words over the two factors are already in normal form, so they
    are generated directly.
    """
    orders = _orders(fp)
    sylls = [[Syllable(fp.sides[s], e) for e in range(n)] for s, n in enumerate(orders)]
    return [NormalWord(tuple(sylls[s][e] for s, e in w)) for w in _ball(orders, radius)]


def _scan_work(orders, radius: int) -> tuple[int, int, bool]:
    """(conjugates a scan to `radius` tests, largest radius whose scan fits
    MAX_SCAN_WORK, whether the count is exact).

    A scan tests |A| + |B| - 2 conjugates per element of the ball.  The count
    stops 64 levels past the largest radius that fits and is then a lower
    bound, so an absurd radius costs nothing to estimate.  Once the ball grows
    by a fixed step per level (Z2 * Z2, or a trivial factor) the rest is
    counted in closed form.
    """
    p, q, k = orders[0] - 1, orders[1] - 1, sum(orders) - 2
    size, ends = 1, (p, q)  # ball size at radius r; words of length r + 1 by last side
    fits = -1
    for r in range(radius + 1):
        step = ends[0] + ends[1]
        if ends == (p * ends[1], q * ends[0]):
            if size * k <= MAX_SCAN_WORK:
                fits = min(radius, r + (MAX_SCAN_WORK // k - size) // step) if step * k else radius
            last = min(radius, fits + 65)
            return (size + step * (last - r)) * k, fits, radius <= fits + 64
        if size * k <= MAX_SCAN_WORK:
            fits = r
        elif r > fits + 64:
            return size * k, fits, False
        if r < radius:
            size, ends = size + step, (p * ends[1], q * ends[0])
    return size * k, fits, True


def _lands_on(word, t: int, a: int, mul, inv) -> int:
    """The side word * (t, a) * word^-1 lies on as one letter, or -1.

    Both seam products are walked on indices and nothing is allocated: the
    left factor is word[:i] followed by the letter (ms, me) when ms >= 0, and
    the right factor is word^-1 from the inverse of word[j] on.
    """
    i = len(word)
    j = i - 1
    ms, me = t, a
    if i and word[j][0] == t:  # word * (t, a)
        i -= 1
        me = mul[t](word[i][1], a)
        if not me:
            ms = -1
    while j >= 0:  # (word[:i] (ms, me)) * word^-1
        s, e = word[j]
        if ms < 0:
            if not i or word[i - 1][0] != s:
                break
            i -= 1
            ms, me = word[i]
        elif ms != s:
            break
        me = mul[s](me, inv[s](e))
        j -= 1
        if me:
            break
        ms = -1
    if i + (ms >= 0) + j + 1 != 1:
        return -1
    return ms if ms >= 0 else word[0][0]


@dataclass(frozen=True)
class Malnormality:
    """Verdict of one malnormality scan, by side index: witnesses[s] is the
    first (g, letter) whose conjugate g * letter * g^-1 is an element of the
    factor on side s, or None when every tested conjugate missed it."""

    witnesses: tuple[tuple[NormalWord, NormalWord] | None, tuple[NormalWord, NormalWord] | None]

    @property
    def holds(self) -> tuple[bool, bool]:
        return tuple(w is None for w in self.witnesses)


def malnormality_check(fp: FreeProduct, radius: int) -> Malnormality:
    """Exhaustively confirm each factor meets its conjugates trivially.

    One pass over every g of syllable length <= radius conjugates each
    non-identity letter of both factors by g.  A conjugate that is one letter
    on side s breaks side s, unless the letter and g both lie in that factor
    (g may be the identity).  Raises ScanTooLarge, before scanning, when that
    is more than MAX_SCAN_WORK conjugates.
    """
    orders = _orders(fp)
    work, fits, exact = _scan_work(orders, radius)
    if work > MAX_SCAN_WORK:
        raise ScanTooLarge(radius, work, exact, fits)
    mul, inv = fp._arith
    letters = [(t, a) for t in (0, 1) for a in range(1, orders[t])]
    witnesses = [None, None]
    for word in _ball(orders, radius):
        for t, a in letters:
            s = _lands_on(word, t, a, mul, inv)
            if s < 0 or witnesses[s] is not None:
                continue
            if s == t and (not word or (len(word) == 1 and word[0][0] == s)):
                continue
            witnesses[s] = (_word(fp, word), _word(fp, ((t, a),)))
    return Malnormality(tuple(witnesses))


def wpd_certificate(fp: FreeProduct, gens_a=None, gens_b=None) -> WpdCertificate:
    """Build the alternating element from the generator lists and certify that
    only the identity automorphism pair fixes the four axis vertices.

    Generator lists default to the minimal generating sets of the factors and
    are padded to equal length by cycling the shorter list.  The element g
    alternates, starts on the first side and ends on the second, so it is
    cyclically reduced and translates by its length along an axis through both
    base vertices; those and their translates by g are the four vertices.
    act_auto maps letters one by one, so (alpha, beta) fixes a vertex exactly
    when (alpha, id) and (id, beta) both do, and the stabilizer is found one
    factor at a time.
    """
    side_a, side_b = fp.sides
    ta = fp.factor(side_a)
    tb = fp.factor(side_b)
    auts_a = automorphisms(ta)  # refuses an order past the bound before any work
    auts_b = automorphisms(tb)
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
    g = tuple(letter for i in range(n)
              for letter in ((0, gens_a[i % len(gens_a)]), (1, gens_b[i % len(gens_b)])))
    four = (base(fp, side_a), base(fp, side_b), _vertex(fp, g, side_a), _vertex(fp, g, side_b))
    id_a, id_b = identity_perm(ta.order), identity_perm(tb.order)
    fix_a = [alpha for alpha in auts_a if all(act_auto(fp, alpha, id_b, x) == x for x in four)]
    fix_b = [beta for beta in auts_b if all(act_auto(fp, id_a, beta, x) == x for x in four)]
    return WpdCertificate(
        g=_word(fp, g),
        translation_length=len(g),
        axis_vertices=four,
        stabilizer_pairs_checked=len(auts_a) * len(auts_b),
        survivors=tuple(itertools.product(fix_a, fix_b)),
    )
