"""Vertex groups: their descriptors, their group law, and concrete finite
groups given by multiplication tables.

This module owns vertex-group arithmetic.  `arithmetic` turns a descriptor
into the one factor object the word engine, the tree and the automorphism
search all compute with.  Tables fix the identity at index 0.  All group
axioms are checked completely at load time, so downstream code may index
into tables freely; associativity by Light's test (Clifford and Preston, The
Algebraic Theory of Semigroups I, 1961, section 1.2) on a generating set, in
O(n^2 |gens|) products rather than n^3.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

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


class OrderTooLarge(GpkitError):
    """Raised when automorphism enumeration is asked for a table above the bound."""

    def __init__(self, n: int, bound: int):
        super().__init__(f"table order {n} exceeds bound {bound}")


class _Factor:
    """One vertex group on element codes, 0 being the identity: 0..order-1 for
    finite groups, exponents for Z (order None).  Subclasses give mul and inv."""

    def __init__(self, order):
        self.order = order

    def valid(self, a) -> bool:
        return isinstance(a, int) and (self.order is None or 0 <= a < self.order)

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.mul(x, a)
            k += 1
        return k


@dataclass(frozen=True)
class MultTable(_Factor):
    """Multiplication table of a finite group; entry [a][b] is the product a*b."""

    product: tuple[tuple[int, ...], ...]
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


def automorphisms(
    table: _Factor, max_order: int = AUTOMORPHISM_ORDER_BOUND
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
    n = table.order
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


def subgroup_closure(table: MultTable, gens) -> frozenset[int]:
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


def minimal_generating_set(table: MultTable) -> tuple[int, ...]:
    """Smallest generating set, first in lexicographic order among those of
    minimal size; the non-identity elements together always generate."""
    n = table.order
    return next(combo for size in range(n) for combo in itertools.combinations(range(1, n), size)
                if len(subgroup_closure(table, combo)) == n)


# ---------------------------------------------------------------------------
# Vertex-group descriptors


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
# quasimorphisms beyond zero.
FINITE_QUOTIENT_FLAGS = QuotientFlags(
    kazhdan_t=YES, sq_universal=NO, many_quasimorphisms=NO, boundedly_generated=YES
)


@dataclass(frozen=True)
class GroupDescriptor:
    """Label attached to a graph vertex: which group sits there.

    kind is one of "Z2", "cyclic", "Z", "table", "opaque".  Only opaque
    descriptors carry user-asserted flags; everything else is concrete.
    """

    kind: str
    modulus: int | None = None
    table: MultTable | None = None
    flags: QuotientFlags | None = None
    source: str | None = None

    def __post_init__(self):
        if self.kind == "cyclic" and (self.modulus is None or self.modulus < 2):
            raise GpkitError("cyclic descriptors need modulus >= 2")
        if self.kind == "table" and (self.table is None or self.table.order < 2):
            raise GpkitError("table descriptors must be non-trivial groups")


def z2() -> GroupDescriptor:
    return GroupDescriptor("Z2")


def cyclic(n: int) -> GroupDescriptor:
    return GroupDescriptor("cyclic", modulus=n)


def infinite_cyclic() -> GroupDescriptor:
    return GroupDescriptor("Z")


def table_group(table: MultTable, source: str | None = None) -> GroupDescriptor:
    return GroupDescriptor("table", table=table, source=source)


def opaque(flags: QuotientFlags) -> GroupDescriptor:
    return GroupDescriptor("opaque", flags=flags)


def order_of(desc: GroupDescriptor) -> int | None:
    """Group order; None when infinite or unknown (opaque)."""
    if desc.kind == "Z2":
        return 2
    if desc.kind == "cyclic":
        return desc.modulus
    if desc.kind == "table":
        return desc.table.order
    return None


def is_finite(desc: GroupDescriptor):
    """True/False for concrete descriptors, None for opaque ones."""
    if desc.kind in ("Z2", "cyclic", "table"):
        return True
    if desc.kind == "Z":
        return False
    return None


def is_z2(desc: GroupDescriptor) -> str:
    """Tri-state: does the descriptor denote the group of order 2?"""
    if desc.kind == "opaque":
        return UNKNOWN
    return YES if order_of(desc) == 2 else NO


def arithmetic(desc: GroupDescriptor) -> _Factor:
    """The group law of a vertex group: a table, Z/n mod n (no table), Z on
    exponents, or a factor that rejects every element (opaque)."""
    if desc.kind == "Z":
        return _IntFactor(None)
    if desc.kind in ("Z2", "cyclic"):
        return _CyclicFactor(order_of(desc))
    if desc.kind == "table":
        return desc.table
    return _OpaqueFactor(None)


def quotient_flags(desc: GroupDescriptor) -> QuotientFlags:
    """Normalize a descriptor to flags about its central quotient.

    Concrete finite groups and the infinite cyclic group have finite (indeed
    trivial, for the latter) central quotients; opaque flags pass through.
    """
    if desc.kind == "opaque":
        return desc.flags
    return FINITE_QUOTIENT_FLAGS
