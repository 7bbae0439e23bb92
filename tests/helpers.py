"""Shared test machinery: concrete group tables, graph enumerators, the
brute-force oracles the engine implementations are checked against, and
helpers that only the tests use.

The word oracle knows nothing about normal forms.  It only applies the three
defining rewrite moves (swap adjacent commuting syllables, merge adjacent
same-vertex syllables, drop a merge that hits the identity) and takes
reachability closures; two words are equal in the group iff their closures
meet.
"""

from __future__ import annotations

import itertools
import math
import string
from collections import deque

from gpkit import graph, validate
from gpkit.graphs import (
    SilWitness,
    SimplicialGraph,
    find_sil,
    girth,
    induced,
    matches_complete_join_pairs,
)
from gpkit.groups import (
    AUTOMORPHISM_ORDER_BOUND,
    GpkitError,
    GroupDescriptor,
    MultTable,
    OrderTooLarge,
    cyclic_table,
    order_of,
)
from gpkit.labeled import LabeledGraph
from gpkit.tree import FreeProduct, TreeVertex, ball_elements, base, tree_distance
from gpkit.words import IDENTITY, NormalWord, Syllable, invert, multiply, normal_form


# ---------------------------------------------------------------------------
# Concrete tables

def perm_table(perms):
    """Multiplication table of a set of permutations closed under composition."""
    perms = sorted(perms)
    assert perms[0] == tuple(range(len(perms[0])))
    idx = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        return tuple(p[q[i]] for i in range(len(p)))

    rows = [[idx[compose(p, q)] for q in perms] for p in perms]
    return validate(rows)


def s3_table():
    return perm_table(itertools.permutations(range(3)))


def dihedral_table(m: int):
    """Symmetries of the regular m-gon (m >= 3), as permutations of its corners."""
    return perm_table({tuple((s * i + k) % m for i in range(m)) for s in (1, -1) for k in range(m)})


def d4_table():
    """Symmetries of the square, as permutations of its corners."""
    return dihedral_table(4)


def q8_table():
    """Quaternion group, as left multiplications of its eight units."""
    basis = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    units = [tuple(sign * x for x in b) for b in basis for sign in (1, -1)]

    def mul(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2, a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2, a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)

    return perm_table({tuple(units.index(mul(p, q)) for q in units) for p in units})


def direct_product_table(t1, t2):
    n1, n2 = t1.order, t2.order
    pairs = [(a, b) for a in range(n1) for b in range(n2)]
    idx = {p: i for i, p in enumerate(pairs)}
    rows = [
        [idx[(t1.mul(a1, b1), t2.mul(a2, b2))] for (b1, b2) in pairs]
        for (a1, a2) in pairs
    ]
    return validate(rows)


def concrete_table(desc: GroupDescriptor) -> MultTable:
    """Multiplication table for a finite concrete descriptor."""
    if desc.kind == "Z2":
        return cyclic_table(2)
    if desc.kind == "cyclic":
        return cyclic_table(desc.modulus)
    if desc.kind == "table":
        return desc.table
    raise GpkitError(f"descriptor kind {desc.kind!r} has no finite table")


def reference_automorphisms(
    table: MultTable, max_order: int = AUTOMORPHISM_ORDER_BOUND
) -> list[tuple[int, ...]]:
    """All product-preserving bijections fixing 0, as permutations of indices.

    Enumeration is a backtracking search with product propagation; the element
    order of an image must match the element order of its preimage.
    """
    n = table.order
    if n > max_order:
        raise OrderTooLarge(n, max_order)
    orders = [table.element_order(a) for a in range(n)]

    def propagate(phi: dict[int, int]):
        # Close the partial map under products until stable; None on conflict.
        while True:
            new = {}
            assigned = list(phi.items())
            for (a, fa), (b, fb) in itertools.product(assigned, assigned):
                c = table.mul(a, b)
                fc = table.mul(fa, fb)
                if c in phi:
                    if phi[c] != fc:
                        return None
                elif c in new:
                    if new[c] != fc:
                        return None
                else:
                    new[c] = fc
            if not new:
                return phi
            images = set(phi.values())
            for c, fc in new.items():
                if fc in images or orders[c] != orders[fc]:
                    return None
                images.add(fc)
            phi = {**phi, **new}

    results: list[tuple[int, ...]] = []

    def extend(phi: dict[int, int]):
        if len(phi) == n:
            results.append(tuple(phi[i] for i in range(n)))
            return
        x = min(a for a in range(n) if a not in phi)
        taken = set(phi.values())
        for y in range(n):
            if y in taken or orders[y] != orders[x]:
                continue
            closed = propagate({**phi, x: y})
            if closed is not None:
                extend(closed)

    extend({0: 0})
    return sorted(results)


# ---------------------------------------------------------------------------
# Graph enumeration

def all_graphs(n: int):
    """Every graph on the first n lowercase letters (all edge subsets)."""
    vs = string.ascii_lowercase[:n]
    pairs = list(itertools.combinations(vs, 2))
    for bits in range(2 ** len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        yield graph(vs, edges)


def graph_iso_classes(n: int):
    """One representative per isomorphism class of graphs on n vertices."""
    vs = string.ascii_lowercase[:n]
    pairs = list(itertools.combinations(range(n), 2))
    pair_idx = {p: i for i, p in enumerate(pairs)}
    seen = set()
    reps = []
    for bits in range(2 ** len(pairs)):
        canon = bits
        for perm in itertools.permutations(range(n)):
            image = 0
            for i, (a, b) in enumerate(pairs):
                if bits >> i & 1:
                    x, y = sorted((perm[a], perm[b]))
                    image |= 1 << pair_idx[(x, y)]
            canon = min(canon, image)
        if canon in seen:
            continue
        seen.add(canon)
        edges = [(vs[a], vs[b]) for i, (a, b) in enumerate(pairs) if bits >> i & 1]
        reps.append(graph(vs, edges))
    return reps


def relabel(g: SimplicialGraph, mapping):
    """Isomorphic copy along a vertex bijection, preserving position order."""
    return graph((mapping[v] for v in g.vertices),
                 ((mapping[x] for x in e) for e in g.edges))


def random_graph(rng, n: int, p: float = 0.5) -> SimplicialGraph:
    vs = string.ascii_lowercase[:n]
    edges = [e for e in itertools.combinations(vs, 2) if rng.random() < p]
    return graph(vs, edges)


# ---------------------------------------------------------------------------
# Group, word and tree operations only the tests use

def center(table: MultTable) -> frozenset[int]:
    """Elements commuting with everything; always contains 0."""
    n = table.order
    return frozenset(
        z for z in range(n) if all(table.mul(z, a) == table.mul(a, z) for a in range(n))
    )


def central_quotient(table: MultTable) -> MultTable:
    """Multiplication table on the cosets of the center.

    Cosets are represented by their smallest element index, and the coset of
    the identity lands at index 0.
    """
    z = center(table)
    n = table.order
    coset_min = {a: min(table.mul(a, x) for x in z) for a in range(n)}
    reps = sorted(set(coset_min.values()))
    pos = {r: i for i, r in enumerate(reps)}
    return validate([[pos[coset_min[table.mul(a, b)]] for b in reps] for a in reps])


def conjugate(w: NormalWord, by: NormalWord, ctx: LabeledGraph) -> NormalWord:
    """by * w * by^-1."""
    return multiply(multiply(by, w, ctx), invert(by, ctx), ctx)


def commutes_with_all_generators(w: NormalWord, ctx: LabeledGraph) -> bool:
    """Whether w is central: every vertex-group element conjugates it to itself.

    Requires all vertex groups finite.
    """
    for v, desc in zip(ctx.graph.vertices, ctx.labels):
        order = order_of(desc)
        if order is None:
            raise ValueError("centrality scan requires finite vertex groups")
        for e in range(1, order):
            if conjugate(w, NormalWord((Syllable(v, e),)), ctx) != w:
                return False
    return True


def adjacent(fp: FreeProduct, x: TreeVertex, y: TreeVertex) -> bool:
    return tree_distance(fp, x, y) == 1


# ---------------------------------------------------------------------------
# Rewriting-closure word oracle

class WordSystem:
    """Raw rewriting view of one labeled graph, on plain (vertex, element) tuples."""

    def __init__(self, ctx: LabeledGraph):
        self.ctx = ctx
        self.adj = _links(ctx.graph)
        self.factors = _reference_factors(ctx)
        self.alphabet = [
            (v, e)
            for v in ctx.graph.vertices
            for e in range(1, order_of(ctx.label(v)))
        ]

    def moves(self, word):
        """All words reachable in one rewrite move."""
        out = []
        for i in range(len(word) - 1):
            (v1, e1), (v2, e2) = word[i], word[i + 1]
            if v1 == v2:
                e = self.factors[v1].mul(e1, e2)
                if e == 0:
                    out.append(word[:i] + word[i + 2:])
                else:
                    out.append(word[:i] + ((v1, e),) + word[i + 2:])
            elif v2 in self.adj[v1]:
                out.append(word[:i] + (word[i + 1], word[i]) + word[i + 2:])
        return out

    def closure(self, word):
        word = tuple(word)
        seen = {word}
        stack = [word]
        while stack:
            w = stack.pop()
            for w2 in self.moves(w):
                if w2 not in seen:
                    seen.add(w2)
                    stack.append(w2)
        return seen

    def equal(self, w1, w2) -> bool:
        """Group equality via intersecting reachability closures."""
        c1 = self.closure(w1)
        if tuple(w2) in c1:
            return True
        return bool(c1 & self.closure(w2))

    def swap_orbit(self, word):
        """Closure under commuting swaps only."""
        word = tuple(word)
        seen = {word}
        stack = [word]
        while stack:
            w = stack.pop()
            for i in range(len(w) - 1):
                (v1, _), (v2, _) = w[i], w[i + 1]
                if v1 != v2 and v2 in self.adj[v1]:
                    w2 = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                    if w2 not in seen:
                        seen.add(w2)
                        stack.append(w2)
        return seen

    def words_up_to(self, length):
        for L in range(length + 1):
            yield from itertools.product(self.alphabet, repeat=L)

    def to_normal_input(self, word):
        return [Syllable(v, e) for v, e in word]


class UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        if p != x:
            p = self.parent[x] = self.find(p)
        return p

    def union(self, x, y):
        self.parent[self.find(x)] = self.find(y)


def equality_classes(system: WordSystem, length: int):
    """Partition of all words up to the given length into group-equality classes.

    Moves never lengthen a word, and any two equal words are connected through
    words no longer than the longer of the two, so the undirected move relation
    restricted to this universe is exactly group equality.
    """
    uf = UnionFind()
    for w in system.words_up_to(length):
        uf.find(w)
        for w2 in system.moves(w):
            uf.union(w, w2)
    classes = {}
    for w in list(uf.parent):
        classes.setdefault(uf.find(w), set()).add(w)
    return list(classes.values())


# ---------------------------------------------------------------------------
# Reference normal form: restart-after-every-merge reduction and a greedy
# lexicographically least reordering, O(L^2) to O(L^3).  normal_form must agree
# with it on every input.

class _IntegerAddition:
    def mul(self, a, b):
        return a + b


def _reference_factors(ctx: LabeledGraph):
    """Vertex name -> object with mul: full tables for finite groups, + for Z."""
    return {
        v: _IntegerAddition() if d.kind == "Z" else concrete_table(d)
        for v, d in zip(ctx.graph.vertices, ctx.labels)
    }


def _links(g: SimplicialGraph) -> dict[str, frozenset[str]]:
    """Vertex name -> its neighbours, from the public `link` alone."""
    return {v: g.link(v) for v in g.vertices}


def reference_normal_form(raw, ctx: LabeledGraph) -> NormalWord:
    """Canonical word of a sequence of valid syllables, by the slow route."""
    g = ctx.graph
    adj = _links(g)
    word = [(s.vertex, s.element) for s in raw if s.element != 0]
    word = _reduce(word, adj, _reference_factors(ctx))
    word = _canonical(word, {v: i for i, v in enumerate(g.vertices)}, adj)
    return NormalWord(tuple(Syllable(v, e) for v, e in word))


def _reduce(word, adj, factors):
    """Delete identities and merge same-vertex syllables across commuting blocks."""
    changed = True
    while changed:
        changed = False
        n = len(word)
        for i in range(n):
            vi, ei = word[i]
            for j in range(i + 1, n):
                vj, ej = word[j]
                if vj == vi:
                    e = factors[vi].mul(ei, ej)
                    del word[j]
                    if e == 0:
                        del word[i]
                    else:
                        word[i] = (vi, e)
                    changed = True
                    break
                if vj not in adj[vi]:
                    break
            if changed:
                break
    return word


def _canonical(word, order, adj):
    """Lexicographically least reordering reachable by commuting swaps.

    A syllable may move to the front iff every earlier syllable commutes with
    it; greedily emitting the least movable syllable yields the minimum.
    """
    out = []
    rem = list(word)
    while rem:
        best = None
        for i, (v, e) in enumerate(rem):
            if any(rem[k][0] not in adj[v] for k in range(i)):
                continue
            key = (order[v], e)
            if best is None or key < best[0]:
                best = (key, i)
        out.append(rem.pop(best[1]))
    return out


# ---------------------------------------------------------------------------
# Reference tree functions: the general normal-form route that gpkit.tree's
# seam products replace.  The tree functions must agree with them.

def reference_vertex_of(fp: FreeProduct, g: NormalWord, side: str) -> TreeVertex:
    """Canonical vertex of the coset g * (side factor)."""
    w = normal_form(g.syllables, fp.ctx)
    if w.syllables and w.syllables[-1].vertex == side:
        w = NormalWord(w.syllables[:-1])
    return TreeVertex(side, w)


def reference_act(fp: FreeProduct, g: NormalWord, x: TreeVertex) -> TreeVertex:
    """Left translation of the coset x by g."""
    return reference_vertex_of(fp, multiply(g, x.rep, fp.ctx), x.side)


def reference_act_auto(fp: FreeProduct, alpha, beta, x: TreeVertex) -> TreeVertex:
    """Image of x under the automorphism extending (alpha, beta) letterwise."""
    side_a, side_b = fp.sides
    mapped = [
        Syllable(s.vertex, alpha[s.element] if s.vertex == side_a else beta[s.element])
        for s in x.rep.syllables
    ]
    return reference_vertex_of(fp, normal_form(mapped, fp.ctx), x.side)


def reference_tree_distance(fp: FreeProduct, x: TreeVertex, y: TreeVertex) -> int:
    """Graph distance between two cosets, from the relative representative."""
    rel = multiply(invert(x.rep, fp.ctx), y.rep, fp.ctx)
    target = reference_vertex_of(fp, rel, y.side)
    k = len(target.rep)
    if k == 0:
        return 0 if x.side == y.side else 1
    return k + (0 if target.rep.syllables[0].vertex == x.side else 1)


def reference_scan_work(orders, radius: int, bound: int) -> tuple[int, int, bool]:
    """tree._scan_work counted level by level at every radius, against `bound`."""
    p, q = orders[0] - 1, orders[1] - 1
    size, ends = 1, (p, q)
    fits = -1
    for r in range(radius + 1):
        if size * (p + q) <= bound:
            fits = r
        elif r > fits + 64:
            return size * (p + q), fits, False
        if r < radius:
            size += ends[0] + ends[1]
            ends = (p * ends[1], q * ends[0])
    return size * (p + q), fits, True


def _is_factor_element(fp: FreeProduct, w: NormalWord, side: str) -> bool:
    return len(w) == 1 and w.syllables[0].vertex == side


def reference_malnormality_check(fp: FreeProduct, side: str, radius: int) -> bool:
    """The malnormality scan with every conjugate multiplied out by the word engine."""
    other = fp.other(side)
    ta = fp.factor(side)
    tb = fp.factor(other)
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


# ---------------------------------------------------------------------------
# Tree BFS oracle, on the word engine alone

def tree_neighbors(fp: FreeProduct, x: TreeVertex):
    """Neighbor cosets by definition: one per element of the side factor."""
    table = fp.factor(x.side)
    other = fp.other(x.side)
    out = set()
    for e in range(table.order):
        w = multiply(x.rep, NormalWord((Syllable(x.side, e),)), fp.ctx)
        if w.syllables and w.syllables[-1].vertex == other:
            w = NormalWord(w.syllables[:-1])
        out.add(TreeVertex(other, w))
    return out


def bfs_distances(fp: FreeProduct, center: TreeVertex, radius: int):
    """Distances from center out to the given radius, by raw breadth-first search."""
    dist = {center: 0}
    frontier = [center]
    for d in range(1, radius + 1):
        nxt = []
        for x in frontier:
            for y in tree_neighbors(fp, x):
                if y not in dist:
                    dist[y] = d
                    nxt.append(y)
        frontier = nxt
    return dist


def fp_of(desc_a, desc_b) -> FreeProduct:
    g = graph("ab")
    return FreeProduct(LabeledGraph(g, (desc_a, desc_b)))


def tree_ball(fp: FreeProduct, radius: int, center: TreeVertex | None = None):
    """All tree vertices within the given distance of center (default: first base)."""
    if center is None:
        center = base(fp, fp.sides[0])
    # representatives of vertices within the ball are at most this long
    out = []
    for w in ball_elements(fp, radius + len(center.rep)):
        for side in fp.sides:
            if w.syllables and w.syllables[-1].vertex == side:
                continue
            x = TreeVertex(side, w)
            if reference_tree_distance(fp, center, x) <= radius:
                out.append(x)
    out.sort(key=lambda x: x.sort_key(fp))
    return out


# ---------------------------------------------------------------------------
# Stabilizer generation probe

GENERATES_ALL = "GeneratesAll"
NOT_WITHIN_RADIUS = "NotWithinRadius"


def stabilizer_elements(fp: FreeProduct, x: TreeVertex):
    """The full point stabilizer of x inside the free product: rep * factor * rep^-1."""
    table = fp.factor(x.side)
    rep_inv = invert(x.rep, fp.ctx)
    out = []
    for e in range(1, table.order):
        s = NormalWord((Syllable(x.side, e),))
        out.append(multiply(multiply(x.rep, s, fp.ctx), rep_inv, fp.ctx))
    return out


def generation_probe(fp: FreeProduct, x: TreeVertex, y: TreeVertex, radius: int) -> str:
    """One-sided test that the two point stabilizers generate the whole group.

    Expands products of at most `radius` stabilizer elements; GeneratesAll as
    soon as every factor element appears, NotWithinRadius otherwise.  A
    negative answer never claims non-generation.
    """
    gens = set(stabilizer_elements(fp, x)) | set(stabilizer_elements(fp, y))
    targets = set()
    for side in fp.sides:
        table = fp.factor(side)
        targets |= {NormalWord((Syllable(side, e),)) for e in range(1, table.order)}
    seen = {IDENTITY}
    level = {IDENTITY}
    for _ in range(radius):
        if targets <= seen:
            return GENERATES_ALL
        level = {multiply(w, s, fp.ctx) for w in level for s in gens} - seen
        seen |= level
    return GENERATES_ALL if targets <= seen else NOT_WITHIN_RADIUS


# ---------------------------------------------------------------------------
# Join-pairs partition by search

def reference_join_pairs_partition(g: SimplicialGraph):
    """Search for an explicit partition witnessing matches_complete_join_pairs.

    Tries every partition of the vertices into singletons and pairs, and checks
    the join condition by definition: pair blocks are non-edges and every pair
    of vertices in different blocks is an edge.  Returns the blocks (tuples in
    vertex order) or None.  Deliberately a dumb search; it serves as the second
    route in consistency checks.
    """
    vs = list(g.vertices)

    def fits(block, blocks) -> bool:
        if len(block) == 2 and g.has_edge(block[0], block[1]):
            return False
        for b in blocks:
            for x in block:
                for y in b:
                    if not g.has_edge(x, y):
                        return False
        return True

    def search(rest, blocks):
        if not rest:
            return tuple(blocks)
        head, tail = rest[0], rest[1:]
        if fits((head,), blocks):
            found = search(tail, blocks + [(head,)])
            if found is not None:
                return found
        for i, other in enumerate(tail):
            block = (head, other)
            if fits(block, blocks):
                found = search(tail[:i] + tail[i + 1:], blocks + [block])
                if found is not None:
                    return found
        return None

    return search(vs, [])


def sil_implies_vast(g: SimplicialGraph) -> bool:
    """Cross-check: a graph containing a separated-intersection-of-links pair
    never satisfies the pairs-join condition."""
    witness = find_sil(g)
    if witness is None:
        return True
    return not matches_complete_join_pairs(g)


# ---------------------------------------------------------------------------
# Graph references: the searches the bitmask graph layer replaced, and
# graph operations only the tests use

def complement(g: SimplicialGraph) -> SimplicialGraph:
    """Same vertices, an edge exactly where g has none.

    >>> complement(graph("abc", ["ab", "bc", "ac"])).edges
    frozenset()
    """
    return graph(g.vertices, (
        (u, v) for u, v in itertools.combinations(g.vertices, 2) if not g.has_edge(u, v)
    ))


def distance(g: SimplicialGraph, u: str, v: str) -> float:
    """Graph distance; math.inf when u and v lie in different components."""
    if u == v:
        return 0
    dist = {u: 0}
    q = deque([u])
    while q:
        x = q.popleft()
        for y in g.link(x):
            if y not in dist:
                dist[y] = dist[x] + 1
                if y == v:
                    return dist[y]
                q.append(y)
    return math.inf


def reference_connected_components(g: SimplicialGraph) -> list[frozenset[str]]:
    """Components, ordered by their smallest vertex index."""
    seen: set[str] = set()
    comps = []
    for v in g.vertices:
        if v in seen:
            continue
        comp = {v}
        q = deque([v])
        while q:
            x = q.popleft()
            for y in g.link(x):
                if y not in comp:
                    comp.add(y)
                    q.append(y)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def reference_find_sil(g: SimplicialGraph):
    """First witness (by vertex order on the pair, then by smallest component
    vertex) of two vertices at distance >= 2 whose common-link removal leaves a
    component avoiding both, or None."""
    for u, v in itertools.combinations(g.vertices, 2):
        if g.has_edge(u, v):
            continue
        cut = g.link(u) & g.link(v)
        rest = induced(g, [w for w in g.vertices if w not in cut])
        comps = sorted(
            reference_connected_components(rest),
            key=lambda c: min(g.index(w) for w in c),
        )
        for comp in comps:
            if u not in comp and v not in comp:
                return SilWitness(u, v, comp)
    return None


def reference_is_molecular(g: SimplicialGraph) -> bool:
    """Connected, no vertex of degree <= 1, and girth >= 5."""
    if not g.vertices:
        return False
    if len(reference_connected_components(g)) > 1:
        return False
    if any(g.degree(v) <= 1 for v in g.vertices):
        return False
    return girth(g) >= 5


# ---------------------------------------------------------------------------
# Graph-file serializer

def _descriptor_token(desc: GroupDescriptor) -> str:
    if desc.kind == "Z2":
        return "Z2"
    if desc.kind == "cyclic":
        return f"Z/{desc.modulus}"
    if desc.kind == "Z":
        return "Z"
    if desc.kind == "table":
        if desc.source is None:
            raise ValueError("table descriptor without a file source cannot be serialized")
        return f"table:{desc.source}"
    f = desc.flags
    return (f"opaque{{T={f.kazhdan_t},SQ={f.sq_universal},"
            f"QH={f.many_quasimorphisms},BG={f.boundedly_generated}}}")


def serialize_graph_file(ctx: LabeledGraph) -> str:
    """Canonical text form: vertices in order, then edges sorted by vertex order."""
    g = ctx.graph
    lines = [f"vertex {v} {_descriptor_token(ctx.label(v))}" for v in g.vertices]
    pairs = sorted(
        (sorted(e, key=g.index) for e in g.edges),
        key=lambda p: (g.index(p[0]), g.index(p[1])),
    )
    lines.extend(f"edge {a} {b}" for a, b in pairs)
    return "\n".join(lines) + "\n"
