"""Shared test machinery: concrete group tables, graph enumerators, and the
brute-force oracles the engine implementations are checked against.

The word oracle knows nothing about normal forms.  It only applies the three
defining rewrite moves (swap adjacent commuting syllables, merge adjacent
same-vertex syllables, drop a merge that hits the identity) and takes
reachability closures; two words are equal in the group iff their closures
meet.
"""

from __future__ import annotations

import itertools
import string

from gpkit import graph, validate
from gpkit.groups import concrete_table, order_of
from gpkit.graphs import SimplicialGraph
from gpkit.labeled import LabeledGraph
from gpkit.tree import FreeProduct, TreeVertex, base, vertex_of
from gpkit.words import IDENTITY, NormalWord, Syllable, multiply


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


def d4_table():
    """Symmetries of the square, as permutations of its corners."""
    rot = (1, 2, 3, 0)
    flip = (1, 0, 3, 2)

    def compose(p, q):
        return tuple(p[q[i]] for i in range(4))

    elems = {tuple(range(4))}
    frontier = [tuple(range(4))]
    while frontier:
        p = frontier.pop()
        for g in (rot, flip):
            q = compose(p, g)
            if q not in elems:
                elems.add(q)
                frontier.append(q)
    assert len(elems) == 8
    return perm_table(elems)


def direct_product_table(t1, t2):
    n1, n2 = t1.order, t2.order
    pairs = [(a, b) for a in range(n1) for b in range(n2)]
    idx = {p: i for i, p in enumerate(pairs)}
    rows = [
        [idx[(t1.mul(a1, b1), t2.mul(a2, b2))] for (b1, b2) in pairs]
        for (a1, a2) in pairs
    ]
    return validate(rows)


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
    vs = tuple(mapping[v] for v in g.vertices)
    es = frozenset(frozenset(mapping[x] for x in e) for e in g.edges)
    return SimplicialGraph(vs, es)


def random_graph(rng, n: int, p: float = 0.5) -> SimplicialGraph:
    vs = string.ascii_lowercase[:n]
    edges = [e for e in itertools.combinations(vs, 2) if rng.random() < p]
    return graph(vs, edges)


# ---------------------------------------------------------------------------
# Rewriting-closure word oracle

class WordSystem:
    """Raw rewriting view of one labeled graph, on plain (vertex, element) tuples."""

    def __init__(self, ctx: LabeledGraph):
        self.ctx = ctx
        self.adj = ctx.graph._adj
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


def reference_normal_form(raw, ctx: LabeledGraph) -> NormalWord:
    """Canonical word of a sequence of valid syllables, by the slow route."""
    word = [(s.vertex, s.element) for s in raw if s.element != 0]
    word = _reduce(word, ctx.graph._adj, _reference_factors(ctx))
    word = _canonical(word, ctx.graph._order, ctx.graph._adj)
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
# Tree BFS oracle

def tree_neighbors(fp: FreeProduct, x: TreeVertex):
    """Neighbor cosets by definition: one per element of the side factor."""
    table = fp.factor_table(x.side)
    other = fp.other(x.side)
    out = set()
    for e in range(table.order):
        if e == 0:
            w = x.rep
        else:
            w = multiply(x.rep, NormalWord((Syllable(x.side, e),)), fp.ctx)
        out.add(vertex_of(fp, w, other))
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
