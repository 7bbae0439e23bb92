"""Finite simplicial graphs and the combinatorial criteria the classifier reduces to.

Vertices keep their declaration order, which fixes every tie-break in this
package (canonical words, witness selection, report output).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from .groups import GpkitError


@dataclass(frozen=True)
class SimplicialGraph:
    """Undirected graph without loops or multi-edges.

    Adjacency is one `int` bitmask per vertex: bit j of masks[i] is set when
    the vertices with declaration indices i and j are adjacent.  The
    constructor checks one mask per vertex, no bit past the last vertex and
    no vertex in its own mask.  Symmetry is left to the checked builders,
    `graph` and `cli.parse_graph_file`, which set both bits of each edge as
    they check it.

    >>> g = graph("abc", ["ab", "bc"])
    >>> sorted(g.link("b"))
    ['a', 'c']
    >>> g.degree("a")
    1
    >>> "d" in g
    False
    """

    vertices: tuple[str, ...]
    masks: tuple[int, ...]
    _order: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        order = {v: i for i, v in enumerate(self.vertices)}
        if len(order) != len(self.vertices):
            raise GpkitError("duplicate vertex ids")
        n = len(self.vertices)
        if len(self.masks) != n:
            raise GpkitError(f"{len(self.masks)} masks for {n} vertices")
        for i, m in enumerate(self.masks):
            if not 0 <= m < 1 << n:
                raise GpkitError(f"mask of vertex {self.vertices[i]!r} has bits past {n} vertices")
            if m >> i & 1:
                raise GpkitError(f"vertex {self.vertices[i]!r} is adjacent to itself")
        object.__setattr__(self, "_order", order)

    def __contains__(self, v) -> bool:
        return v in self._order

    @property
    def edges(self) -> frozenset[frozenset[str]]:
        """The edges as vertex-id pairs, read off the masks on each call."""
        return frozenset(frozenset((v, w)) for v in self.vertices for w in self.link(v))

    def index(self, v: str) -> int:
        return self._order[v]

    def link(self, v: str) -> frozenset[str]:
        return _names(self, self.masks[self._order[v]])

    def degree(self, v: str) -> int:
        return self.masks[self._order[v]].bit_count()

    def has_edge(self, u: str, v: str) -> bool:
        return bool(self.masks[self._order[u]] >> self._order[v] & 1)


def graph(vertices, edges=()) -> SimplicialGraph:
    """Build a graph from vertex ids and edge pairs (any iterable of pairs).

    >>> graph("ab", ["ab"]).has_edge("a", "b")
    True
    """
    vs = tuple(vertices)
    order = {v: i for i, v in enumerate(vs)}
    masks = [0] * len(vs)
    for e in map(set, edges):
        if len(e) != 2:
            raise GpkitError(f"edge {sorted(e)} must join two distinct vertices")
        u, w = e
        i, j = order.get(u), order.get(w)
        if i is None or j is None:
            raise GpkitError(f"edge {sorted(e)} references undeclared vertices")
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return SimplicialGraph(vs, tuple(masks))


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
    return graph((v for v in g.vertices if v in kept), (e for e in g.edges if e <= kept))


def is_complete(g: SimplicialGraph) -> bool:
    return all(m.bit_count() == len(g.vertices) - 1 for m in g.masks)


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
    masks = g.masks
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


def _reach(masks, vs: int) -> int:
    """Bitmask of the vertices adjacent to some vertex of the set `vs`."""
    reach = 0
    while vs:
        low = vs & -vs
        reach |= masks[low.bit_length() - 1]
        vs ^= low
    return reach


def _flood(masks, seed: int, allowed: int) -> int:
    """Bitmask of the vertices joined to the vertex set `seed` by paths inside
    `allowed` (seed a subset of allowed): the union of their components there."""
    comp = frontier = seed
    while frontier:
        frontier = _reach(masks, frontier) & allowed & ~comp
        comp |= frontier
    return comp


def _names(g: SimplicialGraph, mask: int) -> frozenset[str]:
    names = []
    while mask:
        low = mask & -mask
        names.append(g.vertices[low.bit_length() - 1])
        mask ^= low
    return frozenset(names)


def _split(masks, rest: int):
    """Bitmasks of the components of the subgraph induced on `rest`, by
    smallest vertex index."""
    while rest:
        comp = _flood(masks, rest & -rest, rest)
        rest &= ~comp
        yield comp


def _components(masks):
    """Bitmasks of the components, by smallest vertex index."""
    yield from _split(masks, (1 << len(masks)) - 1)


def _star_components(masks, i: int):
    """Bitmasks of the components of G - N[i], the graph minus vertex i and
    its link, by smallest vertex index."""
    yield from _split(masks, (1 << len(masks)) - 1 & ~masks[i] & ~(1 << i))


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

    Lemma: for non-adjacent u, v those components are the components K of
    G - N[u] with v outside K and N(K) inside lk v, so one flood per component
    of G - N[u] serves every v (Berry, Bordat and Cogis, IJFCS 11(3), 2000).

    >>> find_sil(graph("uvw")).component
    frozenset({'w'})
    >>> find_sil(graph("abc", ["ab", "bc"])) is None
    True
    """
    masks = g.masks
    every = (1 << len(masks)) - 1
    for i, mi in enumerate(masks):
        later = every & ~mi & ~((2 << i) - 1)  # non-neighbours declared after i
        if not later:
            continue
        witness = None
        for comp in _star_components(masks, i):
            cands = later & ~comp
            sep = _reach(masks, comp) & ~comp if cands else 0  # N(K), inside lk i
            while sep and cands:
                low = sep & -sep
                cands &= masks[low.bit_length() - 1]
                sep ^= low
            if cands:
                j = (cands & -cands).bit_length() - 1
                witness = SilWitness(g.vertices[i], g.vertices[j], _names(g, comp))
                later &= (1 << j) - 1  # a later component must offer a lower j
        if witness is not None:
            return witness
    return None


def is_molecular(g: SimplicialGraph) -> bool:
    """Non-empty, connected, min degree >= 2 and girth >= 5: no adjacent pair with a
    common neighbour (a triangle) and no pair with two (a 4-cycle), as in Itai-Rodeh."""
    masks = g.masks
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
