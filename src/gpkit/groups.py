"""Vertex groups: each label is one object that carries its order, the flags
of its central quotient and its group law.

A vertex group is a `GroupDescriptor`: a multiplication table (`MultTable`),
Z/n as addition mod n, Z on exponents, or an opaque group known only by its
flags.  The word engine, the tree and the automorphism search all compute with
the label itself.  Tables fix the identity at index 0.  All group axioms are
checked completely at load time, so downstream code may index into tables
freely; associativity by Light's test (Clifford and Preston, The Algebraic
Theory of Semigroups I, 1961, section 1.2) on a generating set, in
O(n^2 |gens|) products rather than n^3.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

YES = "yes"
NO = "no"
UNKNOWN = "unknown"
TRI_STATES = (YES, NO, UNKNOWN)


# Largest table order automorphisms() enumerates by default.
AUTOMORPHISM_ORDER_BOUND = 12


class GpkitError(ValueError):
    """Base class of the errors gpkit raises on bad input."""


class NotAGroup(GpkitError):
    """Raised when a raw table violates a group axiom."""


class NonFiniteLabel(GpkitError):
    """Operation restricted to finite vertex groups got something else."""


class OrderTooLarge(GpkitError):
    """Raised when automorphism enumeration is asked for a table above the bound."""

    def __init__(self, n: int, bound: int):
        super().__init__(f"table order {n} exceeds bound {bound}")


@dataclass(frozen=True)
class QuotientFlags:
    """Tri-state property flags asserted about the central quotient G/Z(G)."""

    kazhdan_t: str = UNKNOWN
    sq_universal: str = UNKNOWN
    many_quasimorphisms: str = UNKNOWN
    boundedly_generated: str = UNKNOWN

    def __post_init__(self):
        for f in (self.kazhdan_t, self.sq_universal,
                  self.many_quasimorphisms, self.boundedly_generated):
            if f not in TRI_STATES:
                raise GpkitError(f"flag value {f!r} not in {TRI_STATES}")


# Any finite group: the central quotient is finite, hence has property (T), is
# boundedly generated, is not SQ-universal and has no homogeneous
# quasimorphisms beyond zero.  Z has a trivial central quotient, so the same.
FINITE_QUOTIENT_FLAGS = QuotientFlags(
    kazhdan_t=YES, sq_universal=NO, many_quasimorphisms=NO, boundedly_generated=YES
)


@dataclass(frozen=True)
class GroupDescriptor:
    """A vertex group: the label on a graph vertex and the group law that the
    word engine, the tree and the automorphism search compute with.

    Elements are int codes, 0 being the identity: 0..order-1 for finite
    groups, exponents for Z.  order is None for Z and for opaque groups; flags
    are about the central quotient; kind is "cyclic", "Z", "table" or
    "opaque".  Subclasses give mul and inv.
    """

    kind: ClassVar[str]
    order: ClassVar[int | None]
    flags: ClassVar[QuotientFlags] = FINITE_QUOTIENT_FLAGS

    def valid(self, a) -> bool:
        return isinstance(a, int) and 0 <= a < self.order

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.mul(x, a)
            k += 1
        return k


@dataclass(frozen=True)
class MultTable(GroupDescriptor):
    """Multiplication table of a finite group; entry [a][b] is the product a*b.

    source, the table file it was read from, takes no part in equality."""

    kind = "table"
    product: tuple[tuple[int, ...], ...]
    source: str | None = field(default=None, compare=False)
    order: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "order", len(self.product))

    def mul(self, a: int, b: int) -> int:
        return self.product[a][b]

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        inv = [0] * self.order
        for a in range(self.order):
            inv[a] = self.product[a].index(0)
        return tuple(inv)

    def inv(self, a: int) -> int:
        return self.inverse[a]


@dataclass(frozen=True)
class _Cyclic(GroupDescriptor):
    """Z/n as addition mod n, with no n x n table."""

    kind = "cyclic"
    order: int

    def mul(self, a, b):
        return (a + b) % self.order

    def inv(self, a):
        return -a % self.order


@dataclass(frozen=True)
class _InfiniteCyclic(GroupDescriptor):
    """Z as addition of exponents."""

    kind = "Z"
    order = None

    def valid(self, a) -> bool:
        return isinstance(a, int)

    def mul(self, a, b):
        return a + b

    def inv(self, a):
        return -a


@dataclass(frozen=True)
class _Opaque(GroupDescriptor):
    """A group known only by the flags asserted about it: any element of it is
    an error, so an opaque vertex blocks only the words that touch it."""

    kind = "opaque"
    order = None
    flags: QuotientFlags = field()  # required: the inherited default is for concrete groups

    def valid(self, *args):
        raise GpkitError("opaque vertex groups are not computable; the word engine rejects them")

    mul = inv = valid


def z2() -> GroupDescriptor:
    return _Cyclic(2)


def cyclic(n: int) -> GroupDescriptor:
    return _Cyclic(n)


def infinite_cyclic() -> GroupDescriptor:
    return _InfiniteCyclic()


def table_group(table: MultTable, source: str | None = None) -> GroupDescriptor:
    """The table group read from `source`, sharing table's rows."""
    return MultTable(table.product, source)


def opaque(flags: QuotientFlags) -> GroupDescriptor:
    return _Opaque(flags)


def validate(rows) -> MultTable:
    """Check every group axiom on a raw square array and wrap it.

    Raises NotAGroup naming the violated axiom and a witness.
    """
    rows = [tuple(int(x) for x in r) for r in rows]
    n = len(rows)
    if n == 0:
        raise NotAGroup("empty table")
    for i, r in enumerate(rows):
        if len(r) != n:
            raise NotAGroup(f"row {i} has {len(r)} entries, expected {n}")
        for x in r:
            if not 0 <= x < n:
                raise NotAGroup(f"entry {x} in row {i} out of range 0..{n - 1}")
    for a in range(n):
        if rows[0][a] != a or rows[a][0] != a:
            raise NotAGroup(f"index 0 does not act as identity on element {a}")
    for a in range(n):
        if 0 not in rows[a]:
            raise NotAGroup(f"element {a} has no right inverse")
        b = rows[a].index(0)
        if rows[b][a] != 0:
            raise NotAGroup(f"element {a} has no two-sided inverse (right inverse {b})")
    for a in range(n):
        if len(set(rows[a])) != n:
            raise NotAGroup(f"row {a} is not a permutation")
        col = [rows[x][a] for x in range(n)]
        if len(set(col)) != n:
            raise NotAGroup(f"column {a} is not a permutation")
    # Light's test: the b with (ab)c = a(bc) for all a, c are closed under
    # products and hold 0, so checking b over a set whose left-normed products
    # cover the table decides associativity.  Each generator is the least
    # element outside the walk from 0 by the generators before it.
    table = MultTable(tuple(rows))
    gens: list[int] = []
    seen = {0}
    while len(seen) < n:
        gens.append(next(x for x in range(n) if x not in seen))
        seen = subgroup_closure(table, gens)
    for a in range(n):
        ra = rows[a]
        for b in gens:
            left, right = rows[ra[b]], tuple(map(ra.__getitem__, rows[b]))
            if left != right:
                c = next(c for c in range(n) if left[c] != right[c])
                raise NotAGroup(f"associativity fails on triple ({a}, {b}, {c})")
    return table


def _finite_order(table) -> int:
    if table.order is None:
        raise NonFiniteLabel(f"descriptor kind {table.kind!r} has no finite table")
    return table.order


def automorphisms(
    table: GroupDescriptor, max_order: int = AUTOMORPHISM_ORDER_BOUND
) -> list[tuple[int, ...]]:
    """All product-preserving bijections fixing 0, as permutations of indices.

    An automorphism is fixed by the images of a generating set (Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, 2005).  The generators are
    taken greedily, each the least element outside the subgroup of those before
    it, and their images are chosen in turn among elements of the same order.
    Each choice is extended along the Cayley graph of the subgroup generated so
    far and kept only if it is injective there and phi(a*g) = phi(a)*phi(g) for
    every a in that subgroup and every generator g so far.
    """
    n = _finite_order(table)
    if n > max_order:
        raise OrderTooLarge(n, max_order)
    mul = table.mul
    orders = [table.element_order(a) for a in range(n)]

    def close(phi: dict[int, int], pairs: list[tuple[int, int]]):
        # phi extended over the subgroup the (generator, image) pairs span; None on conflict.
        phi = dict(phi)
        taken = set(phi.values())
        walk = list(phi)
        for a in walk:
            for g, y in pairs:
                c, fc = mul(a, g), mul(phi[a], y)
                if c not in phi:
                    if fc in taken:
                        return None
                    phi[c] = fc
                    taken.add(fc)
                    walk.append(c)
                elif phi[c] != fc:
                    return None
        return phi

    results: list[tuple[int, ...]] = []

    def extend(phi: dict[int, int], pairs: list[tuple[int, int]]):
        if len(phi) == n:
            results.append(tuple(phi[a] for a in range(n)))
            return
        x = min(a for a in range(n) if a not in phi)
        for y in range(n):
            if orders[y] == orders[x]:
                more = pairs + [(x, y)]
                closed = close(phi, more)
                if closed is not None:
                    extend(closed, more)

    extend({0: 0}, [])
    return sorted(results)


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def subgroup_closure(table: GroupDescriptor, gens) -> frozenset[int]:
    """Subgroup generated by the given element indices: the vertices of the
    Cayley graph reached from the identity by multiplying on the right by each
    generator.  In a finite group that set is closed under products."""
    seen = {0}
    walk = [0]
    for a in walk:
        for g in gens:
            c = table.mul(a, g)
            if c not in seen:
                seen.add(c)
                walk.append(c)
    return frozenset(seen)


def minimal_generating_set(table: GroupDescriptor) -> tuple[int, ...]:
    """Smallest generating set, first in lexicographic order among those of
    minimal size; the non-identity elements together always generate."""
    n = _finite_order(table)
    return next(combo for size in range(n) for combo in itertools.combinations(range(1, n), size)
                if len(subgroup_closure(table, combo)) == n)
