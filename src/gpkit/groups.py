"""Concrete finite groups given by multiplication tables, plus the vertex-group
descriptors the rest of the package consumes.

Tables fix the identity at index 0.  All group axioms are checked exhaustively
at load time, so downstream code may index into tables freely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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


@dataclass(frozen=True)
class MultTable:
    """Multiplication table of a finite group; entry [a][b] is the product a*b."""

    product: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.product)

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

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.mul(x, a)
            k += 1
        return k


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
    for a in range(n):
        for b in range(n):
            ab = rows[a][b]
            for c in range(n):
                if rows[ab][c] != rows[a][rows[b][c]]:
                    raise NotAGroup(f"associativity fails on triple ({a}, {b}, {c})")
    return MultTable(tuple(rows))


def cyclic_table(n: int) -> MultTable:
    """Addition table of the cyclic group of order n."""
    if n < 1:
        raise ValueError("order must be positive")
    return MultTable(tuple(tuple((i + j) % n for j in range(n)) for i in range(n)))


def automorphisms(
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


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def subgroup_closure(table: MultTable, gens) -> frozenset[int]:
    """Subgroup generated by the given element indices."""
    seen = {0} | set(gens)
    frontier = list(seen)
    while frontier:
        a = frontier.pop()
        for b in list(seen):
            for c in (table.mul(a, b), table.mul(b, a)):
                if c not in seen:
                    seen.add(c)
                    frontier.append(c)
    return frozenset(seen)


def minimal_generating_set(table: MultTable) -> tuple[int, ...]:
    """Smallest generating set, first in lexicographic order among those of
    minimal size."""
    n = table.order
    if n == 1:
        return ()
    for size in range(1, n):
        for combo in itertools.combinations(range(1, n), size):
            if len(subgroup_closure(table, combo)) == n:
                return combo
    raise AssertionError("unreachable: the full element set generates")


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
                raise ValueError(f"flag value {f!r} not in {TRI_STATES}")


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
            raise ValueError("cyclic descriptors need modulus >= 2")
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


def concrete_table(desc: GroupDescriptor) -> MultTable:
    """Multiplication table for a finite concrete descriptor."""
    if desc.kind == "Z2":
        return cyclic_table(2)
    if desc.kind == "cyclic":
        return cyclic_table(desc.modulus)
    if desc.kind == "table":
        return desc.table
    raise GpkitError(f"descriptor kind {desc.kind!r} has no finite table")


def quotient_flags(desc: GroupDescriptor) -> QuotientFlags:
    """Normalize a descriptor to flags about its central quotient.

    Concrete finite groups and the infinite cyclic group have finite (indeed
    trivial, for the latter) central quotients; opaque flags pass through.
    """
    if desc.kind == "opaque":
        return desc.flags
    return FINITE_QUOTIENT_FLAGS
