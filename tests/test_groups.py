import ast
import importlib
import itertools
import random
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

import gpkit
from gpkit import graph
from gpkit.cli import parse_table_file
from gpkit.groups import (
    FINITE_QUOTIENT_FLAGS,
    NO,
    UNKNOWN,
    YES,
    GpkitError,
    GroupDescriptor,
    NonFiniteLabel,
    NotAGroup,
    OrderTooLarge,
    QuotientFlags,
    automorphisms,
    cyclic,
    identity_perm,
    infinite_cyclic,
    minimal_generating_set,
    opaque,
    subgroup_closure,
    table_group,
    validate,
    z2,
)
from gpkit.labeled import LabeledGraph

from .helpers import (
    center,
    central_quotient,
    concrete_table,
    cyclic_table,
    d4_table,
    dihedral_table,
    direct_product_table,
    intercalate_swaps,
    light_generators,
    perm_table,
    psl27_table,
    q8_table,
    reference_automorphisms,
    reference_subgroup_closure,
    reference_validate,
    s3_table,
    s4_table,
    s5_table,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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


# Tables the other tests reject or build outside `_reference_groups`.
NON_GROUPS = {
    "no inverse": [[0, 1], [1, 1]],
    "broken identity": [[1, 0], [0, 1]],
    "loop of order 5": [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                        [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
    "ragged": [[0, 1], [1]],
    "out of range": [[0, 1], [1, 2]],
    "empty": [],
}


def _verdict(check, rows):
    try:
        return check(rows)
    except NotAGroup as exc:
        return str(exc)


def _assert_agrees_with_reference(rows):
    """validate and reference_validate accept the same table or reject it;
    a rejection for associativity names a triple that fails, with a middle
    entry from the generating set Light's test checks."""
    got, want = _verdict(validate, rows), _verdict(reference_validate, rows)
    if not str(want).startswith("associativity fails"):
        assert got == want
        return
    m = re.fullmatch(r"associativity fails on triple \((\d+), (\d+), (\d+)\)", str(got))
    assert m, (got, want)
    a, b, c = map(int, m.groups())
    assert rows[rows[a][b]][c] != rows[a][rows[b][c]], got
    assert b in light_generators(rows), got


def test_validate_agrees_with_reference_on_groups_and_non_groups():
    tables = [t.product for t in _reference_groups().values()]
    tables += [s4_table().product, s5_table().product, psl27_table().product, ((0,),)]
    assert [len(t) for t in tables[-3:-1]] == [120, 168]
    for rows in tables + list(NON_GROUPS.values()):
        _assert_agrees_with_reference(rows)


SWAPPED = {
    "S3": s3_table, "D4": d4_table, "S4": s4_table, "D24": lambda: dihedral_table(12),
    "Z2xD12": lambda: direct_product_table(cyclic_table(2), dihedral_table(6)),
}


@pytest.mark.parametrize("name", SWAPPED)
def test_validate_rejects_intercalate_swaps_as_the_reference_does(name):
    # 40 seeded non-associative Latin squares per group, 200 in all; only
    # associativity can reject them
    for rows in intercalate_swaps(SWAPPED[name](), random.Random(f"swap:{name}"), 40):
        _assert_agrees_with_reference(rows)
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


def _reference_groups():
    """The tables the suite builds, and Z/n, dihedral groups, Q8 and direct
    products up to order 48."""
    c2, s3, d4, q8 = cyclic_table(2), s3_table(), d4_table(), q8_table()
    v4 = direct_product_table(c2, c2)
    groups = {f"Z/{n}": cyclic_table(n) for n in range(1, 49)}
    groups |= {f"D{2 * m}": dihedral_table(m) for m in (3, 4, 5, 6, 8, 12, 16, 24)}
    groups |= {
        "S3": s3, "s3.tbl": parse_table_file((FIXTURES / "s3.tbl").read_text()),
        "Q8": q8, "D8/Z": central_quotient(d4), "Z2xZ2": v4,
        "Z2xZ2xZ2": direct_product_table(v4, c2),
        "Z2xZ4": direct_product_table(c2, cyclic_table(4)),
        "Z2xS3": direct_product_table(c2, s3), "Z3xS3": direct_product_table(cyclic_table(3), s3),
        "S3xS3": direct_product_table(s3, s3), "Z2xD8": direct_product_table(c2, d4),
        "Z2xQ8": direct_product_table(c2, q8),
        "Z2xS4": direct_product_table(c2, perm_table(itertools.permutations(range(4)))),
    }
    return groups


def test_automorphisms_match_reference():
    groups = _reference_groups()
    expected = {name: reference_automorphisms(t, max_order=48) for name, t in groups.items()}
    for name, t in groups.items():
        assert automorphisms(t, max_order=48) == expected[name], name
    for n in range(2, 49):  # Z/n computes mod n, with no table
        assert automorphisms(cyclic(n), max_order=48) == expected[f"Z/{n}"], n


def test_automorphism_search_tries_only_images_of_matching_order():
    # 1 generates Z/48 and only the 16 units share its order; each is walked
    # once over the 48 elements, two products a step.
    f = cyclic(48)
    products = 0

    def mul(a, b):
        nonlocal products
        products += 1
        return f.mul(a, b)

    counting = SimpleNamespace(order=48, mul=mul, element_order=f.element_order)
    assert len(automorphisms(counting, max_order=48)) == 16
    assert products <= 2 * 48 * 16


def test_subgroup_closure_and_minimal_generators(s3):
    assert subgroup_closure(cyclic_table(6), [2]) == frozenset({0, 2, 4})
    assert minimal_generating_set(cyclic_table(6)) == (1,)
    gens = minimal_generating_set(s3)
    assert len(gens) == 2
    assert subgroup_closure(s3, gens) == frozenset(range(6))


def test_subgroup_closure_matches_reference():
    rng = random.Random(31)
    for name, t in _reference_groups().items():
        for _ in range(4):
            gens = rng.sample(range(t.order), rng.randint(0, min(3, t.order)))
            assert subgroup_closure(t, gens) == reference_subgroup_closure(t, gens), (name, gens)


def test_subgroup_closure_walks_the_cayley_graph_once():
    # one product per element reached and generator; closing under every
    # product of a new element with each one seen took 4,170
    f = cyclic(48)
    products = 0

    def mul(a, b):
        nonlocal products
        products += 1
        return f.mul(a, b)

    assert subgroup_closure(SimpleNamespace(mul=mul), [1]) == frozenset(range(48))
    assert products <= 48


def test_descriptor_validation():
    # a trivial group or a non-descriptor is refused where it becomes a label
    for label in (cyclic(1), validate([[0]]), table_group(validate([[0]])), "Z2"):
        with pytest.raises(GpkitError):
            LabeledGraph(graph("ab"), (z2(), label))


def test_descriptor_queries(s3):
    assert z2().order == 2
    assert cyclic(5).order == 5
    assert infinite_cyclic().order is None
    assert infinite_cyclic().kind == "Z"
    assert opaque(QuotientFlags()).order is None
    assert opaque(QuotientFlags()).kind == "opaque"
    assert cyclic(2).order == 2
    assert table_group(cyclic_table(2)).order == 2
    assert cyclic(3).order != 2
    assert infinite_cyclic().order != 2
    assert concrete_table(cyclic(4)) == cyclic_table(4)
    assert concrete_table(table_group(s3)) == s3
    with pytest.raises(GpkitError):
        concrete_table(infinite_cyclic())


def test_quotient_flags():
    assert z2().flags == FINITE_QUOTIENT_FLAGS
    assert table_group(s3_table()).flags == QuotientFlags(
        kazhdan_t=YES, sq_universal=NO, many_quasimorphisms=NO, boundedly_generated=YES
    )
    assert infinite_cyclic().flags == FINITE_QUOTIENT_FLAGS
    f = QuotientFlags(kazhdan_t=UNKNOWN, sq_universal=YES)
    assert opaque(f).flags == f


def test_vertex_groups_are_values():
    f = QuotientFlags(kazhdan_t=UNKNOWN, sq_universal=YES)
    assert z2() == cyclic(2)
    assert cyclic(3) != cyclic(4)
    assert infinite_cyclic() == infinite_cyclic()
    assert opaque(f) == opaque(f)
    assert opaque(f) != opaque(QuotientFlags())
    assert z2() != table_group(cyclic_table(2))  # labels compare by representation
    labels = [z2(), cyclic(2), cyclic(3), cyclic(4), infinite_cyclic(), infinite_cyclic(),
              opaque(f), opaque(f), table_group(s3_table()), table_group(s3_table(), "s3.tbl")]
    assert all(isinstance(d, GroupDescriptor) for d in labels)
    assert len(set(labels)) == 6


def test_table_group_shares_the_table():
    t = s3_table()
    d = table_group(t, source="s3.tbl")
    assert d.product is t.product
    assert d == t
    assert (d.source, t.source) == ("s3.tbl", None)


def test_vertex_group_laws():
    assert (cyclic(5).mul(3, 4), cyclic(5).inv(2), cyclic(5).element_order(2)) == (2, 3, 5)
    assert (infinite_cyclic().mul(3, -7), infinite_cyclic().inv(4)) == (-4, -4)
    assert infinite_cyclic().valid(-10**9) and not infinite_cyclic().valid(1.5)
    assert cyclic(5).valid(4) and not cyclic(5).valid(5) and not cyclic(5).valid(-1)
    s3 = s3_table()
    assert all(s3.mul(a, s3.inv(a)) == 0 for a in range(6))
    with pytest.raises(GpkitError, match="not computable"):
        opaque(QuotientFlags()).valid(0)


@pytest.mark.parametrize("desc", [infinite_cyclic(), opaque(QuotientFlags())], ids=["Z", "opaque"])
def test_group_searches_refuse_a_label_without_a_finite_order(desc):
    for search in (automorphisms, minimal_generating_set):
        with pytest.raises(NonFiniteLabel) as err:
            search(desc)
        assert str(err.value) == f"descriptor kind {desc.kind!r} has no finite table"


def test_flag_values_checked():
    with pytest.raises(GpkitError):
        QuotientFlags(kazhdan_t="maybe")


def test_every_raise_in_src_names_a_gpkit_error():
    """Bad input ends in a GpkitError.  The two other channels are argparse's
    ArgumentTypeError (exit status 2) and SystemExit in the cli."""
    src = Path(gpkit.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        name = "gpkit" if path.stem == "__init__" else f"gpkit.{path.stem}"
        module = importlib.import_module(name)
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise):
                continue
            where = f"{path.name}:{node.lineno}"
            assert node.exc is not None, f"{where}: bare raise"
            raised = ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
            if raised == "argparse.ArgumentTypeError":
                continue
            if name == "gpkit.cli" and raised == "SystemExit":
                continue
            exc = module
            for part in raised.split("."):
                exc = getattr(exc, part)
            assert isinstance(exc, type) and issubclass(exc, GpkitError), f"{where}: raise {raised}"
