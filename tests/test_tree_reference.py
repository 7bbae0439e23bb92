"""The tree layer's seam-product arithmetic against the general normal-form
route it replaces (the reference_* functions in tests/helpers.py)."""

import itertools
import random
import time

import pytest

import gpkit.tree as tree
from gpkit import cyclic, infinite_cyclic, table_group, z2
from gpkit.groups import automorphisms
from gpkit.tree import (
    ScanTooLarge,
    TreeVertex,
    act,
    act_auto,
    ball_elements,
    malnormality_check,
    tree_distance,
)
from gpkit.words import BadSyllable, NormalWord, Syllable, invert, multiply

from .helpers import (
    d4_table,
    fp_of,
    reference_act,
    reference_act_auto,
    reference_malnormality_check,
    reference_scan_work,
    reference_tree_distance,
    reference_vertex_of,
    s3_table,
    vertex_of,
)

FACTORS = {
    "Z2": z2(), "Z3": cyclic(3), "Z4": cyclic(4), "S3": table_group(s3_table()),
    "Z6": cyclic(6), "D4": table_group(d4_table()),
}
# every factor pair of acceptance criterion 2, plus Z/6 and D4
PAIRS = list(itertools.combinations_with_replacement(FACTORS, 2))
SCAN_PAIRS = list(itertools.combinations_with_replacement(("Z2", "Z3", "Z4", "S3"), 2)) + [
    ("Z6", "Z6"), ("Z6", "D4"), ("D4", "D4"),
]


def _fp(pair):
    return fp_of(FACTORS[pair[0]], FACTORS[pair[1]])


def _alternating(fp, rng, max_len):
    """A random alternating word as (side index, element) letters."""
    orders = [fp.factor(side).order for side in fp.sides]
    out = []
    for _ in range(rng.randint(0, max_len)):
        s = rng.choice([s for s in (0, 1) if not out or out[-1][0] != s])
        out.append((s, rng.randrange(1, orders[s])))
    return tuple(out)


def _raw(fp, rng, max_len):
    """Any syllable sequence over the two sides, identity syllables included."""
    return NormalWord(tuple(
        Syllable(side, rng.randrange(fp.factor(side).order))
        for side in (rng.choice(fp.sides) for _ in range(rng.randint(0, max_len)))
    ))


@pytest.mark.parametrize("pair", PAIRS, ids="*".join)
def test_seam_product_matches_multiply(pair):
    fp = _fp(pair)
    rng = random.Random(f"seam-{pair}")
    for _ in range(300):
        u, v = _alternating(fp, rng, 6), _alternating(fp, rng, 6)
        if rng.random() < 0.3:  # force long cancellations at the seam
            v = tree._inverse(fp, u[len(u) // 2:]) + v
        w = multiply(tree._word(fp, u), tree._word(fp, v), fp.ctx)
        assert tree._word(fp, tree._seam_product(fp, u, v)) == w
        assert tree._word(fp, tree._inverse(fp, u)) == invert(tree._word(fp, u), fp.ctx)


@pytest.mark.parametrize("pair", PAIRS, ids="*".join)
def test_tree_functions_match_reference(pair):
    fp = _fp(pair)
    auts = [automorphisms(fp.factor(side)) for side in fp.sides]
    rng = random.Random(f"tree-{pair}")
    for _ in range(200):
        g = tree._word(fp, _alternating(fp, rng, 6))
        raw = _raw(fp, rng, 8)
        side = rng.choice(fp.sides)
        x = vertex_of(fp, tree._word(fp, _alternating(fp, rng, 6)), side)
        y = vertex_of(fp, tree._word(fp, _alternating(fp, rng, 6)), rng.choice(fp.sides))
        assert vertex_of(fp, raw, side) == reference_vertex_of(fp, raw, side)
        assert vertex_of(fp, g, side) == reference_vertex_of(fp, g, side)
        assert act(fp, g, x) == reference_act(fp, g, x)
        assert act(fp, raw, x) == reference_act(fp, raw, x)
        assert tree_distance(fp, x, y) == reference_tree_distance(fp, x, y)
        alpha, beta = rng.choice(auts[0]), rng.choice(auts[1])
        assert act_auto(fp, alpha, beta, x) == reference_act_auto(fp, alpha, beta, x)


@pytest.mark.parametrize("desc, letters", [(infinite_cyclic(), (-2, -1, 1, 2)),
                                           (cyclic(40000), (1, 2, 39998, 39999))],
                         ids=["Z", "Z40000"])
def test_tree_functions_match_reference_without_tables(desc, letters):
    """Factors the seam products must handle without a multiplication table."""
    fp = fp_of(desc, cyclic(3))
    rng = random.Random(f"no-table-{desc.kind}")

    def raw():
        return NormalWord(tuple(
            Syllable("a", rng.choice(letters)) if rng.random() < 0.5 else Syllable("b", 1)
            for _ in range(rng.randint(0, 8))))

    for _ in range(300):
        g, side = raw(), rng.choice(fp.sides)
        x = vertex_of(fp, raw(), side)
        y = vertex_of(fp, raw(), rng.choice(fp.sides))
        assert vertex_of(fp, g, side) == reference_vertex_of(fp, g, side)
        assert act(fp, g, x) == reference_act(fp, g, x)
        assert tree_distance(fp, x, y) == reference_tree_distance(fp, x, y)


@pytest.mark.parametrize("pair", SCAN_PAIRS, ids="*".join)
def test_malnormality_check_matches_reference_scan(pair):
    fp = _fp(pair)
    for radius in (1, 2, 3):
        assert malnormality_check(fp, radius).holds == tuple(
            reference_malnormality_check(fp, side, radius) for side in fp.sides)


@pytest.mark.parametrize("pair", [("Z3", "Z3"), ("Z3", "S3"), ("Z4", "Z4"), ("S3", "S3")],
                         ids="*".join)
def test_scan_reports_the_factor_a_wrong_inverse_breaks(pair, monkeypatch):
    """Free factors are malnormal, so a False verdict means broken arithmetic.
    One wrong inverse on side a's factor must break side a alone, with a
    witness the word engine confirms under the same arithmetic."""
    fresh = {"Z3": cyclic(3), "Z4": cyclic(4), "S3": table_group(s3_table())}
    fp = fp_of(fresh[pair[0]], FACTORS[pair[1]])  # side a's factor object is its own
    factor = fp.factor("a")
    right = factor.inv
    wrong = next(e for e in range(1, factor.order) if e != right(1))
    monkeypatch.setitem(vars(factor), "inv", lambda e: wrong if e == 1 else right(e))
    assert fp._arith[1][0](1) == wrong
    result = malnormality_check(fp, 3)
    assert result.holds == (False, True)
    assert result.holds == tuple(reference_malnormality_check(fp, side, 3) for side in fp.sides)
    g, letter = result.witnesses[0]
    conj = multiply(multiply(g, letter, fp.ctx), invert(g, fp.ctx), fp.ctx)
    assert len(conj) == 1 and conj.syllables[0].vertex == "a"
    g_in_a = g.is_identity or (len(g) == 1 and g.syllables[0].vertex == "a")
    assert not (g_in_a and letter.syllables[0].vertex == "a")


@pytest.mark.parametrize("pair", [("Z2", "Z2"), ("Z2", "Z3"), ("S3", "Z4"), ("Z6", "D4")],
                         ids="*".join)
def test_seam_test_matches_conjugates(pair):
    """Every conjugate g*(t, a)*g^-1 over the radius-3 ball, on either side."""
    fp = _fp(pair)
    mul, inv = fp._arith
    orders = tree._orders(fp)
    for g in ball_elements(fp, 3):
        word = tree._letters(fp, g)
        g_inv = invert(g, fp.ctx)
        for t, a in ((t, a) for t in (0, 1) for a in range(1, orders[t])):
            conj = multiply(multiply(g, tree._word(fp, ((t, a),)), fp.ctx), g_inv, fp.ctx)
            want = fp.sides.index(conj.syllables[0].vertex) if len(conj) == 1 else -1
            assert tree._lands_on(word, t, a, mul, inv) == want


def test_ball_generator_gives_each_alternating_word_once_after_its_prefix():
    fp = _fp(("Z3", "S3"))
    seen = set()
    for w in map(tuple, tree._ball(tree._orders(fp), 4)):
        assert w not in seen and (not w or w[:-1] in seen)
        assert all(x[0] != y[0] for x, y in zip(w, w[1:]))
        seen.add(w)
    assert len(seen) == 1 + 7 + 20 + 70 + 200


@pytest.mark.parametrize("pair, radius", [(("Z2", "Z3"), 5), (("S3", "D4"), 3),
                                          (("Z2", "Z2"), 7)])
def test_scan_work_counts_the_ball(pair, radius):
    fp = _fp(pair)
    orders = tree._orders(fp)
    work, fits, exact = tree._scan_work(orders, radius)
    assert exact and fits == radius
    assert work == len(ball_elements(fp, radius)) * (sum(orders) - 2)


def test_scan_too_large_names_radius_work_bound_and_largest_radius(monkeypatch):
    def no_scan(*args):
        raise AssertionError("the scan started")

    monkeypatch.setattr(tree, "_ball", no_scan)
    fp = fp_of(cyclic(12), cyclic(12))
    with pytest.raises(ScanTooLarge) as exc:
        malnormality_check(fp, 6)
    ball = 1 + sum(2 * 11 ** k for k in range(1, 7))
    assert str(exc.value) == (
        f"malnormality scan at radius 6 needs {ball * 22:,} conjugates, "
        f"over the bound of {tree.MAX_SCAN_WORK:,}; the largest radius within it is 4")
    with pytest.raises(ScanTooLarge, match="needs more than .* within it is 1249999$"):
        malnormality_check(fp_of(z2(), z2()), 10**12)


@pytest.mark.parametrize("bound", [0, 1, 2, 7, 50, 1000])
def test_scan_work_matches_the_level_by_level_count(monkeypatch, bound):
    # orders 1 and 2 give the balls that stop growing or grow linearly
    monkeypatch.setattr(tree, "MAX_SCAN_WORK", bound)
    for orders in itertools.product(range(1, 6), repeat=2):
        for radius in itertools.chain(range(80), (300, 2000)):
            assert tree._scan_work(orders, radius) == reference_scan_work(orders, radius, bound)


def test_z2_z2_refusal_is_counted_in_closed_form(monkeypatch):
    """Z2 * Z2's ball has 2r + 1 elements, so its work passes the bound only
    about 1.25 M levels out; the refusal must not walk them."""
    def no_scan(*args):
        raise AssertionError("the scan started")

    monkeypatch.setattr(tree, "_ball", no_scan)
    fp = fp_of(z2(), z2())
    fits = (tree.MAX_SCAN_WORK // 2 - 1) // 2
    start = time.perf_counter()
    with pytest.raises(ScanTooLarge) as exact:
        malnormality_check(fp, fits + 1)
    with pytest.raises(ScanTooLarge) as beyond:
        malnormality_check(fp, 10**12)
    assert time.perf_counter() - start < 0.05
    assert str(exact.value) == (
        f"malnormality scan at radius {fits + 1} needs {2 * (2 * fits + 3):,} conjugates, "
        f"over the bound of {tree.MAX_SCAN_WORK:,}; the largest radius within it is {fits}")
    assert str(beyond.value).endswith(f"the largest radius within it is {fits}")
    assert tree._scan_work((2, 2), fits) == (2 * (2 * fits + 1), fits, True)


def test_vertex_outside_the_two_sides_is_bad_syllable():
    fp = fp_of(z2(), cyclic(3))
    with pytest.raises(BadSyllable, match="unknown vertex"):
        act(fp, NormalWord((Syllable("c", 1),)), TreeVertex("a", NormalWord(())))
