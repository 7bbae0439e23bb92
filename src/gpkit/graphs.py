"""Finite simplicial graphs and the combinatorial criteria the classifier reduces to.

Vertices keep their declaration order, which fixes every tie-break in this
package (canonical words, witness selection, report output).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field


@dataclass(frozen=True)
class SimplicialGraph:
    """Undirected graph without loops or multi-edges.

    Adjacency is one `int` bitmask per vertex, built with the edge check:
    bit j of _masks[i] is set when the vertices with declaration indices i
    and j are adjacent.

    >>> g = graph("abc", ["ab", "bc"])
    >>> sorted(g.link("b"))
    ['a', 'c']
    >>> g.degree("a")
    1
    """

    vertices: tuple[str, ...]
    edges: frozenset[frozenset[str]]
    _order: dict[str, int] = field(init=False, repr=False, compare=False)
    _masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        order = {v: i for i, v in enumerate(self.vertices)}
        if len(order) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        masks = [0] * len(order)
        for e in self.edges:
            if len(e) != 2:
                raise ValueError(f"edge {sorted(e)} must join two distinct vertices")
            u, w = e
            i, j = order.get(u), order.get(w)
            if i is None or j is None:
                raise ValueError(f"edge {sorted(e)} references undeclared vertices")
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_masks", tuple(masks))

    def index(self, v: str) -> int:
        return self._order[v]

    def link(self, v: str) -> frozenset[str]:
        return _names(self, self._masks[self._order[v]])

    def degree(self, v: str) -> int:
        return self._masks[self._order[v]].bit_count()

    def has_edge(self, u: str, v: str) -> bool:
        return bool(self._masks[self._order[u]] >> self._order[v] & 1)


def graph(vertices, edges=()) -> SimplicialGraph:
    """Build a graph from vertex ids and edge pairs (any iterable of pairs).

    >>> graph("ab", ["ab"]).has_edge("a", "b")
    True
    """
    vs = tuple(vertices)
    es = frozenset(frozenset(e) for e in edges)
    return SimplicialGraph(vs, es)


@dataclass(frozen=True)
class JoinDecomposition:
    """Split of the vertex set into the cone (vertices adjacent to every other
    vertex) and the core (everything else)."""

    cone: tuple[str, ...]
    core: tuple[str, ...]


@dataclass(frozen=True)
class SilWitness:
    """Two vertices at distance >= 2 together with a connected component of the
    graph minus their common link that avoids both of them."""

    u: str
    v: str
    component: frozenset[str]


def induced(g: SimplicialGraph, keep) -> SimplicialGraph:
    """Induced subgraph on the given vertices, preserving declaration order."""
    kept = set(keep)
    vs = tuple(v for v in g.vertices if v in kept)
    es = frozenset(e for e in g.edges if e <= kept)
    return SimplicialGraph(vs, es)


def is_complete(g: SimplicialGraph) -> bool:
    return len(g.edges) == len(g.vertices) * (len(g.vertices) - 1) // 2


def join_decompose(g: SimplicialGraph) -> JoinDecomposition:
    """Peel off the cone vertices.

    >>> join_decompose(graph("abc", ["ab", "bc"]))
    JoinDecomposition(cone=('b',), core=('a', 'c'))
    """
    n = len(g.vertices)
    cone = tuple(v for v in g.vertices if g.degree(v) == n - 1)
    core = tuple(v for v in g.vertices if g.degree(v) < n - 1)
    return JoinDecomposition(cone, core)


def matches_complete_join_pairs(g: SimplicialGraph) -> bool:
    """Whether g is a join of a complete graph with copies of two isolated
    vertices (both parts possibly empty).

    Equivalent to: every vertex misses at most one other vertex, i.e. the
    complement has maximum degree <= 1.

    >>> matches_complete_join_pairs(graph("abcd", ["ab", "bc", "cd", "da"]))
    True
    >>> matches_complete_join_pairs(graph("abcd", ["ab", "bc", "cd"]))
    False
    """
    n = len(g.vertices)
    return all(g.degree(v) >= n - 2 for v in g.vertices)


def join_pairs_partition(g: SimplicialGraph):
    """The partition witnessing matches_complete_join_pairs, read off the
    complement, or None when g is not a pairs-join.

    Blocks are the singletons of universal vertices (isolated in the
    complement) and the non-adjacent pairs (complement edges), as tuples in
    vertex order, listed by their first vertex.

    >>> join_pairs_partition(graph("abcd", ["ab", "bc", "cd", "da"]))
    (('a', 'c'), ('b', 'd'))
    >>> join_pairs_partition(graph("abc", ["ab"])) is None
    True
    """
    masks = g._masks
    every = (1 << len(masks)) - 1
    blocks = []
    for i, m in enumerate(masks):
        missing = every & ~m & ~(1 << i)
        if not missing:
            blocks.append((g.vertices[i],))
        elif missing & (missing - 1):
            return None
        else:
            j = missing.bit_length() - 1  # the one vertex i misses
            if j > i:
                blocks.append((g.vertices[i], g.vertices[j]))
    return tuple(blocks)


def _flood(masks, seed: int, allowed: int) -> int:
    """Bitmask of the vertices joined to the vertex set `seed` by paths inside
    `allowed` (seed a subset of allowed): the union of their components there."""
    comp = frontier = seed
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & allowed & ~comp
        comp |= frontier
    return comp


def _names(g: SimplicialGraph, mask: int) -> frozenset[str]:
    names = []
    while mask:
        low = mask & -mask
        names.append(g.vertices[low.bit_length() - 1])
        mask ^= low
    return frozenset(names)


def _components(masks):
    """Bitmasks of the components, by smallest vertex index."""
    rest = (1 << len(masks)) - 1
    while rest:
        comp = _flood(masks, rest & -rest, rest)
        rest &= ~comp
        yield comp


def connected_components(g: SimplicialGraph) -> list[frozenset[str]]:
    """Components, ordered by their smallest vertex index."""
    return [_names(g, comp) for comp in _components(g._masks)]


def girth(g: SimplicialGraph) -> float:
    """Length of a shortest cycle; math.inf for forests.

    >>> girth(graph("abcd", ["ab", "bc", "cd", "da"]))
    4
    >>> girth(graph("abc", ["ab", "bc"]))
    inf
    """
    best = math.inf
    for s in g.vertices:
        dist = {s: 0}
        parent = {s: None}
        q = deque([s])
        while q:
            x = q.popleft()
            for y in g.link(x):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    q.append(y)
                elif parent[x] != y:
                    best = min(best, dist[x] + dist[y] + 1)
    return best


def find_sil(g: SimplicialGraph):
    """First witness (by vertex order on the pair, then by smallest component
    vertex) of two vertices at distance >= 2 whose common-link removal leaves a
    component avoiding both, or None.

    >>> find_sil(graph("uvw")).component
    frozenset({'w'})
    >>> find_sil(graph("abc", ["ab", "bc"])) is None
    True
    """
    masks = g._masks
    every = (1 << len(masks)) - 1
    # with no common neighbour, the pair splits the graph as its components do
    whole = {i: c for c in _components(masks) for i in range(len(masks)) if c >> i & 1}
    for i, mi in enumerate(masks):
        for j in range(i + 1, len(masks)):
            if mi >> j & 1:
                continue
            cut = mi & masks[j]
            rest = every & ~cut
            side = _flood(masks, 1 << i | 1 << j, rest) if cut else whole[i] | whole[j]
            other = rest & ~side
            if other:
                comp = _flood(masks, other & -other, rest)
                return SilWitness(g.vertices[i], g.vertices[j], _names(g, comp))
    return None


def is_molecular(g: SimplicialGraph) -> bool:
    """Non-empty, connected, min degree >= 2 and girth >= 5: no adjacent pair with a
    common neighbour (a triangle) and no pair with two (a 4-cycle), as in Itai-Rodeh."""
    masks = g._masks
    if len(list(_components(masks))) != 1 or any(m.bit_count() <= 1 for m in masks):
        return False
    for i, mi in enumerate(masks):
        for j in range(i + 1, len(masks)):
            common = mi & masks[j]
            if common and (common & (common - 1) or mi >> j & 1):
                return False
    return True


def complement_degrees(g: SimplicialGraph) -> dict[str, int]:
    """Per-vertex degree in the complement (the profile behind the pairs-join test)."""
    n = len(g.vertices)
    return {v: n - 1 - g.degree(v) for v in g.vertices}
