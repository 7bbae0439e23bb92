"""Elements of a graph product in canonical normal form.

A word is a sequence of syllables (vertex, non-identity factor element).  It is
reduced when no two syllables on one vertex have only syllables commuting with
that vertex between them; reduced words of one element differ only by swaps of
adjacent commuting syllables (Green 1990, Hermiller-Meier 1995).  The canonical
word is the least one under (vertex declaration order, element), so equal
elements have equal canonical words.  normal_form finds it in one pass:

* Merge by piling (Crisp-Godelle-Wiest 2009).  Each vertex keeps a stack of the
  positions of its live syllables.  A new syllable on v merges into the top of
  v's stack when that top lies after the top of every vertex not adjacent to v;
  an identity product pops the stack.  Otherwise it is pushed.  The prefix read
  so far stays reduced, so nothing is rescanned.
* Order.  Each live syllable depends on the latest earlier live syllable on
  every vertex not commuting with it, its own included.  Kahn's algorithm with
  a min-heap keyed on (declaration index, element) emits the least order; two
  syllables free to move never share a vertex, so keys never tie.

L syllables over n vertices cost O(L*n + L log L).  Vertex groups must be
finite tables, finite cyclic groups (mod-n arithmetic) or the infinite cyclic
group (elements are then non-zero exponents); a syllable on an opaque one is
rejected.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .groups import GpkitError, GroupDescriptor, order_of
from .labeled import LabeledGraph


class BadSyllable(GpkitError):
    """Syllable with an unknown vertex or an element invalid for its factor."""

    def __init__(self, vertex, element, why=""):
        self.vertex = vertex
        self.element = element
        super().__init__(f"bad syllable ({vertex!r}, {element!r}){': ' + why if why else ''}")


class SameVertex(GpkitError):
    """Retraction and free-product vertices must be distinct."""


class VerticesAdjacent(GpkitError):
    """Retraction and free-product vertices must be non-adjacent."""


@dataclass(frozen=True)
class Syllable:
    vertex: str
    element: int


@dataclass(frozen=True)
class NormalWord:
    """Canonical-form element; the empty tuple is the identity."""

    syllables: tuple[Syllable, ...]

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    def __len__(self) -> int:
        return len(self.syllables)


IDENTITY = NormalWord(())


class _Factor:
    """One vertex group on element codes, 0 being the identity: 0..order-1 for
    finite groups, exponents for Z (order None).  Subclasses give mul and inv."""

    def __init__(self, order):
        self.order = order

    def valid(self, a) -> bool:
        return isinstance(a, int) and (self.order is None or 0 <= a < self.order)


class _TableFactor(_Factor):
    def __init__(self, table):
        super().__init__(table.order)
        self.mul = table.mul
        self.inv = table.inv


class _CyclicFactor(_Factor):
    """Z/n as addition mod n, with no n x n table."""

    def mul(self, a, b):
        return (a + b) % self.order

    def inv(self, a):
        return -a % self.order


class _IntFactor(_Factor):
    def mul(self, a, b):
        return a + b

    def inv(self, a):
        return -a


class _OpaqueFactor(_Factor):
    """A group known only by flags: any syllable on it is an error, so an
    opaque vertex blocks only the words that touch it."""

    def valid(self, *args):
        raise GpkitError("opaque vertex groups are not computable; the word engine rejects them")

    mul = inv = valid


def _build_factor(desc: GroupDescriptor) -> _Factor:
    if desc.kind == "Z":
        return _IntFactor(None)
    if desc.kind in ("Z2", "cyclic"):
        return _CyclicFactor(order_of(desc))
    if desc.kind == "table":
        return _TableFactor(desc.table)
    return _OpaqueFactor(None)


class WordTables:
    """Per-context data by vertex declaration index; kept on the context as ctx.word_tables."""

    def __init__(self, ctx: LabeledGraph):
        g = ctx.graph
        self.names = g.vertices
        self.index = g._order
        self.factors = tuple(_build_factor(d) for d in ctx.labels)
        # noncommuting[i]: vertices whose syllables do not commute with i's, i included
        self.noncommuting = tuple(
            tuple(j for j, u in enumerate(g.vertices) if not g.has_edge(u, v))
            for v in g.vertices
        )


def normal_form(raw, ctx: LabeledGraph) -> NormalWord:
    """Canonical word for any syllable sequence (identity syllables allowed).

    Raises BadSyllable on unknown vertices or out-of-range elements.
    """
    t = ctx.word_tables
    index, factors, noncommuting = t.index, t.factors, t.noncommuting
    verts, elems = [], []  # elems[p] == 0: cancelled by a merge
    stacks = [[] for _ in factors]
    for s in raw:
        v = index.get(s.vertex)
        if v is None:
            raise BadSyllable(s.vertex, s.element, "unknown vertex")
        e = s.element
        f = factors[v]
        if not f.valid(e):
            raise BadSyllable(s.vertex, e, "element outside the vertex group")
        if e == 0:
            continue
        stack = stacks[v]
        if stack:
            top = stack[-1]
            for u in noncommuting[v]:
                if stacks[u] and stacks[u][-1] > top:
                    break
            else:
                e = elems[top] = f.mul(elems[top], e)
                if e == 0:
                    stack.pop()
                continue
        stack.append(len(verts))
        verts.append(v)
        elems.append(e)

    succ = [[] for _ in verts]
    indeg = [0] * len(verts)
    last = [-1] * len(factors)
    ready = []
    for p, v in enumerate(verts):
        if elems[p] == 0:
            continue
        for u in noncommuting[v]:
            q = last[u]
            if q >= 0:
                succ[q].append(p)
                indeg[p] += 1
        last[v] = p
        if not indeg[p]:
            ready.append((v, elems[p], p))
    heapq.heapify(ready)
    names = t.names
    out = []
    while ready:
        v, e, p = heapq.heappop(ready)
        out.append(Syllable(names[v], e))
        for q in succ[p]:
            indeg[q] -= 1
            if not indeg[q]:
                heapq.heappush(ready, (verts[q], elems[q], q))
    return NormalWord(tuple(out))


def word_of(ctx: LabeledGraph, *pairs) -> NormalWord:
    """Convenience: normal form of (vertex, element) pairs."""
    return normal_form([Syllable(v, e) for v, e in pairs], ctx)


def multiply(w1: NormalWord, w2: NormalWord, ctx: LabeledGraph) -> NormalWord:
    return normal_form(w1.syllables + w2.syllables, ctx)


def invert(w: NormalWord, ctx: LabeledGraph) -> NormalWord:
    t = ctx.word_tables
    rev = [Syllable(s.vertex, t.factors[t.index[s.vertex]].inv(s.element))
           for s in reversed(w.syllables)]
    return normal_form(rev, ctx)


def retract(w: NormalWord, u: str, v: str, ctx: LabeledGraph) -> NormalWord:
    """Project onto the free product of the u and v vertex groups.

    Kills every syllable on other vertices, then renormalizes.  This is a group
    homomorphism precisely because u and v are required to be non-adjacent.
    """
    g = ctx.graph
    if u not in g._order or v not in g._order:
        raise BadSyllable(u if u not in g._order else v, 0, "unknown vertex")
    if u == v:
        raise SameVertex(f"retraction needs two distinct vertices, got {u!r} twice")
    if g.has_edge(u, v):
        raise VerticesAdjacent(f"vertices {u!r} and {v!r} are adjacent")
    kept = [s for s in w.syllables if s.vertex in (u, v)]
    return normal_form(kept, ctx)
