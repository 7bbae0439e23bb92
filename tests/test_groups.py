import itertools

import pytest

from gpkit.groups import (
    FINITE_QUOTIENT_FLAGS,
    NO,
    UNKNOWN,
    YES,
    GroupDescriptor,
    NotAGroup,
    OrderTooLarge,
    QuotientFlags,
    automorphisms,
    concrete_table,
    cyclic,
    cyclic_table,
    identity_perm,
    infinite_cyclic,
    is_finite,
    is_z2,
    minimal_generating_set,
    opaque,
    order_of,
    quotient_flags,
    subgroup_closure,
    table_group,
    validate,
    z2,
)

from .helpers import center, central_quotient, d4_table, direct_product_table, s3_table


def test_validate_z2():
    t = validate([[0, 1], [1, 0]])
    assert t.order == 2
    assert t.mul(1, 1) == 0


def test_validate_no_inverse():
    with pytest.raises(NotAGroup, match="inverse"):
        validate([[0, 1], [1, 1]])


def test_validate_rejects_broken_identity():
    with pytest.raises(NotAGroup, match="identity"):
        validate([[1, 0], [0, 1]])


def test_validate_rejects_non_associative():
    # Latin square with identity and two-sided inverses but broken associativity
    rows = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAGroup, match="associativity"):
        validate(rows)


def test_validate_s3(s3):
    assert s3.order == 6
    orders = sorted(s3.element_order(a) for a in range(6))
    assert orders == [1, 2, 2, 2, 3, 3]


def test_center_examples(s3, d4):
    assert center(cyclic_table(4)) == frozenset(range(4))
    assert center(s3) == frozenset({0})
    assert len(center(d4)) == 2


def test_central_quotient_examples(s3, d4):
    assert central_quotient(cyclic_table(4)).order == 1
    assert central_quotient(s3) == s3
    q = central_quotient(d4)
    assert q.order == 4
    # Klein group: every element is its own inverse
    assert all(q.mul(a, a) == 0 for a in range(4))


def test_center_is_normal_subgroup(s3, d4):
    for t in (cyclic_table(6), s3, d4):
        z = center(t)
        for a in z:
            for b in z:
                assert t.mul(a, b) in z
        for g in range(t.order):
            for a in z:
                assert t.mul(t.mul(g, a), t.inv(g)) in z


def test_quotient_order_times_center_order(s3, d4):
    for t in (cyclic_table(5), s3, d4, direct_product_table(cyclic_table(2), s3)):
        assert central_quotient(t).order * len(center(t)) == t.order


def test_automorphism_counts(s3):
    assert automorphisms(cyclic_table(2)) == [identity_perm(2)]
    assert len(automorphisms(cyclic_table(3))) == 2
    assert automorphisms(cyclic_table(3))[1] == (0, 2, 1)
    assert len(automorphisms(s3)) == 6
    assert len(automorphisms(cyclic_table(8))) == 4
    assert len(automorphisms(d4_table())) == 8


def test_automorphisms_form_a_group(s3, d4):
    for t in (cyclic_table(5), cyclic_table(6), s3, d4):
        auts = set(automorphisms(t))
        assert identity_perm(t.order) in auts
        for p in auts:
            inv = tuple(sorted(range(t.order), key=lambda i: p[i]))
            assert inv in auts
            for q in auts:
                assert tuple(p[q[i]] for i in range(t.order)) in auts


def test_automorphisms_preserve_product(s3):
    for p in automorphisms(s3):
        for a in range(6):
            for b in range(6):
                assert p[s3.mul(a, b)] == s3.mul(p[a], p[b])


def test_automorphism_bound():
    with pytest.raises(OrderTooLarge):
        automorphisms(cyclic_table(13))
    assert len(automorphisms(cyclic_table(13), max_order=13)) == 12


def test_subgroup_closure_and_minimal_generators(s3):
    assert subgroup_closure(cyclic_table(6), [2]) == frozenset({0, 2, 4})
    assert minimal_generating_set(cyclic_table(6)) == (1,)
    gens = minimal_generating_set(s3)
    assert len(gens) == 2
    assert subgroup_closure(s3, gens) == frozenset(range(6))


def test_descriptor_validation():
    with pytest.raises(ValueError):
        cyclic(1)
    with pytest.raises(ValueError):
        GroupDescriptor("table", table=validate([[0]]))


def test_descriptor_queries(s3):
    assert order_of(z2()) == 2
    assert order_of(cyclic(5)) == 5
    assert order_of(infinite_cyclic()) is None
    assert is_finite(infinite_cyclic()) is False
    assert is_finite(opaque(QuotientFlags())) is None
    assert is_z2(z2()) == YES
    assert is_z2(cyclic(2)) == YES
    assert is_z2(table_group(cyclic_table(2))) == YES
    assert is_z2(cyclic(3)) == NO
    assert is_z2(infinite_cyclic()) == NO
    assert is_z2(opaque(QuotientFlags())) == UNKNOWN
    assert concrete_table(cyclic(4)) == cyclic_table(4)
    assert concrete_table(table_group(s3)) == s3
    with pytest.raises(ValueError):
        concrete_table(infinite_cyclic())


def test_quotient_flags():
    assert quotient_flags(z2()) == FINITE_QUOTIENT_FLAGS
    assert quotient_flags(table_group(s3_table())) == QuotientFlags(
        kazhdan_t=YES, sq_universal=NO, many_quasimorphisms=NO, boundedly_generated=YES
    )
    assert quotient_flags(infinite_cyclic()) == FINITE_QUOTIENT_FLAGS
    f = QuotientFlags(kazhdan_t=UNKNOWN, sq_universal=YES)
    assert quotient_flags(opaque(f)) == f


def test_flag_values_checked():
    with pytest.raises(ValueError):
        QuotientFlags(kazhdan_t="maybe")
