import itertools
import random

import pytest

import gpkit.tree as tree
from gpkit import cyclic, graph, table_group, z2
from gpkit.groups import GpkitError, automorphisms, identity_perm
from gpkit.labeled import LabeledGraph
from gpkit.tree import (
    FreeProduct,
    IdentityGenerator,
    NotGenerating,
    TreeVertex,
    act,
    act_auto,
    ball_elements,
    base,
    free_product,
    malnormality_check,
    translation_data,
    tree_distance,
    wpd_certificate,
)
from gpkit.words import (
    IDENTITY,
    BadSyllable,
    NormalWord,
    SameVertex,
    Syllable,
    VerticesAdjacent,
    invert,
    multiply,
    retract,
)

from .helpers import (
    GENERATES_ALL,
    NOT_WITHIN_RADIUS,
    adjacent,
    bfs_distances,
    cyclic_table,
    d4_table,
    direct_product_table,
    fp_of,
    generation_probe,
    q8_table,
    reference_subgroup_closure,
    reference_wpd_certificate,
    s3_table,
    tree_ball,
    tree_neighbors,
    vertex_of,
    word_of,
)

FP22 = fp_of(z2(), z2())
FP23 = fp_of(z2(), cyclic(3))
FP33 = fp_of(cyclic(3), cyclic(3))


def rand_vertex(fp, rng, max_rep=5):
    side = rng.choice(fp.sides)
    sylls = []
    prev = None
    for _ in range(rng.randint(0, max_rep)):
        choices = [v for v in fp.sides if v != prev]
        v = rng.choice(choices)
        table = fp.factor(v)
        sylls.append(Syllable(v, rng.randint(1, table.order - 1)))
        prev = v
    if sylls and sylls[-1].vertex == side:
        sylls.pop()
    return TreeVertex(side, NormalWord(tuple(sylls)))


def rand_element(fp, rng, max_len=6):
    sylls = []
    prev = None
    for _ in range(rng.randint(0, max_len)):
        choices = [v for v in fp.sides if v != prev]
        v = rng.choice(choices)
        table = fp.factor(v)
        sylls.append(Syllable(v, rng.randint(1, table.order - 1)))
        prev = v
    return NormalWord(tuple(sylls))


def test_factor_is_the_word_engine_factor():
    s3 = s3_table()
    fp = fp_of(table_group(s3), cyclic(4))
    for side in fp.sides:
        assert fp.factor(side) is fp.ctx.label(side)
    assert fp.factor("a") == s3
    assert fp.factor("a").product is s3.product
    assert not hasattr(fp.factor("b"), "product")  # Z/4 computes mod 4, with no table


def test_free_product_requires_non_adjacent_pair():
    ctx = LabeledGraph(graph("abc", ["ab"]), (z2(), z2(), cyclic(3)))
    fp = free_product(ctx, "a", "c")
    assert fp.sides == ("a", "c")
    with pytest.raises(GpkitError):
        free_product(ctx, "a", "b")
    with pytest.raises(GpkitError):
        free_product(ctx, "a", "a")
    with pytest.raises(GpkitError):
        FreeProduct(LabeledGraph(graph("ab", ["ab"]), (z2(), z2())))


@pytest.mark.parametrize("u, v, error", [
    ("a", "a", SameVertex), ("a", "b", VerticesAdjacent), ("a", "zz", BadSyllable),
    ("zz", "a", BadSyllable), ("zz", "zz", BadSyllable)])
def test_free_product_and_retract_check_a_pair_alike(u, v, error):
    ctx = LabeledGraph(graph("abc", ["ab"]), (z2(), z2(), cyclic(3)))
    with pytest.raises(error) as by_tree:
        free_product(ctx, u, v)
    with pytest.raises(error) as by_words:
        retract(IDENTITY, u, v, ctx)
    assert str(by_tree.value) == str(by_words.value)


def test_vertex_of_examples():
    assert vertex_of(FP23, IDENTITY, "a") == base(FP23, "a")
    a = word_of(FP23.ctx, ("a", 1))
    assert vertex_of(FP23, a, "a") == base(FP23, "a")
    ab = word_of(FP23.ctx, ("a", 1), ("b", 1))
    assert vertex_of(FP23, ab, "b").rep == a


def test_vertex_of_identifies_cosets():
    rng = random.Random(3)
    for _ in range(200):
        g = rand_element(FP23, rng, 4)
        h = rand_element(FP23, rng, 4)
        for side in FP23.sides:
            rel = multiply(invert(g, FP23.ctx), h, FP23.ctx)
            same_coset = len(rel) == 0 or (
                len(rel) == 1 and rel.syllables[0].vertex == side
            )
            assert (vertex_of(FP23, g, side) == vertex_of(FP23, h, side)) == same_coset


def test_adjacency_examples():
    assert adjacent(FP23, base(FP23, "a"), base(FP23, "b"))
    aB = vertex_of(FP23, word_of(FP23.ctx, ("a", 1)), "b")
    assert not adjacent(FP23, base(FP23, "a"), base(FP23, "a"))
    assert not adjacent(FP23, aB, base(FP23, "b"))  # same side
    # the coset a*b*B equals a*B, hence is adjacent to the base A vertex
    abB = vertex_of(FP22, word_of(FP22.ctx, ("a", 1), ("b", 1)), "b")
    assert abB == vertex_of(FP22, word_of(FP22.ctx, ("a", 1)), "b")
    assert adjacent(FP22, base(FP22, "a"), abB)


def test_distance_examples():
    assert tree_distance(FP23, base(FP23, "a"), base(FP23, "b")) == 1
    assert tree_distance(FP23, base(FP23, "a"), base(FP23, "a")) == 0
    ab = word_of(FP22.ctx, ("a", 1), ("b", 1))
    assert tree_distance(FP22, base(FP22, "a"), vertex_of(FP22, ab, "a")) == 2


@pytest.mark.parametrize("fp", [FP22, FP23, FP33], ids=["2*2", "2*3", "3*3"])
def test_distance_matches_bfs(fp):
    center = base(fp, fp.sides[0])
    oracle = bfs_distances(fp, center, 5)
    for x, d in oracle.items():
        assert tree_distance(fp, center, x) == d
    rng = random.Random(5)
    sample = list(oracle)
    for _ in range(60):
        x = rng.choice(sample)
        local = bfs_distances(fp, x, 3)
        for y, d in local.items():
            assert tree_distance(fp, x, y) == d


def test_tree_ball_matches_bfs():
    for fp in (FP22, FP23, FP33):
        oracle = set(bfs_distances(fp, base(fp, fp.sides[0]), 4))
        assert set(tree_ball(fp, 4)) == oracle


def test_tree_ball_around_far_center():
    center = vertex_of(FP23, word_of(FP23.ctx, ("a", 1), ("b", 1), ("a", 1)), "b")
    oracle = set(bfs_distances(FP23, center, 4))
    assert set(tree_ball(FP23, 4, center)) == oracle


def test_neighbors_are_exactly_distance_one():
    for fp in (FP23, FP33):
        for x in tree_ball(fp, 3):
            for y in tree_neighbors(fp, x):
                assert tree_distance(fp, x, y) == 1


def test_act_examples():
    x = vertex_of(FP23, word_of(FP23.ctx, ("b", 1)), "a")
    assert act(FP23, IDENTITY, x) == x
    a = word_of(FP23.ctx, ("a", 1))
    assert act(FP23, a, base(FP23, "a")) == base(FP23, "a")
    ab = word_of(FP23.ctx, ("a", 1), ("b", 1))
    y = act(FP23, ab, base(FP23, "a"))
    assert y.rep == ab


def test_act_is_isometric_action():
    rng = random.Random(7)
    for fp in (FP23, FP33):
        for _ in range(150):
            g = rand_element(fp, rng)
            h = rand_element(fp, rng)
            x = rand_vertex(fp, rng)
            y = rand_vertex(fp, rng)
            assert tree_distance(fp, act(fp, g, x), act(fp, g, y)) == tree_distance(fp, x, y)
            gh = multiply(g, h, fp.ctx)
            assert act(fp, g, act(fp, h, x)) == act(fp, gh, x)


def test_bipartite_parity():
    rng = random.Random(9)
    for _ in range(200):
        x = rand_vertex(FP33, rng)
        y = rand_vertex(FP33, rng)
        d = tree_distance(FP33, x, y)
        assert d % 2 == (0 if x.side == y.side else 1)


def test_act_auto_examples():
    inv3 = automorphisms(FP23.factor("b"))[1]
    id2 = identity_perm(2)
    x = vertex_of(FP23, word_of(FP23.ctx, ("a", 1), ("b", 1)), "a")
    assert act_auto(FP23, id2, identity_perm(3), x) == x
    y = act_auto(FP23, id2, inv3, x)
    assert y.rep == word_of(FP23.ctx, ("a", 1), ("b", 2))
    assert act_auto(FP23, id2, inv3, base(FP23, "a")) == base(FP23, "a")


def test_act_auto_composes():
    s3 = s3_table()
    fp = fp_of(table_group(s3), cyclic(3))
    auts_a = automorphisms(s3)
    auts_b = automorphisms(fp.factor("b"))
    rng = random.Random(13)
    for _ in range(60):
        a1, a2 = rng.choice(auts_a), rng.choice(auts_a)
        b1, b2 = rng.choice(auts_b), rng.choice(auts_b)
        x = rand_vertex(fp, rng, 4)
        comp_a = tuple(a1[a2[i]] for i in range(len(a1)))
        comp_b = tuple(b1[b2[i]] for i in range(len(b1)))
        assert act_auto(fp, a1, b1, act_auto(fp, a2, b2, x)) == act_auto(fp, comp_a, comp_b, x)


def test_inner_action_respects_stabilizers():
    # conjugating an elliptic stabilizer element tracks the moved vertex
    rng = random.Random(17)
    fp = FP23
    ball = tree_ball(fp, 4)
    elements = ball_elements(fp, 4)
    for _ in range(40):
        x = rng.choice(ball)
        g = rng.choice(elements)
        stab = [h for h in elements if act(fp, h, x) == x]
        gx = act(fp, g, x)
        g_inv = invert(g, fp.ctx)
        for h in stab[:10]:
            conj = multiply(multiply(g, h, fp.ctx), g_inv, fp.ctx)
            assert act(fp, conj, gx) == gx


def test_translation_data_elliptic():
    a = word_of(FP23.ctx, ("a", 1))
    data = translation_data(FP23, a)
    assert data.translation_length == 0
    assert data.segment == (base(FP23, "a"),)
    # conjugate of a factor element fixes the translated vertex
    b = word_of(FP23.ctx, ("b", 1))
    w = multiply(multiply(b, a, FP23.ctx), invert(b, FP23.ctx), FP23.ctx)
    data2 = translation_data(FP23, w)
    assert data2.translation_length == 0
    (fixed,) = data2.segment
    assert act(FP23, w, fixed) == fixed
    assert fixed == vertex_of(FP23, b, "a")


def test_translation_data_identity():
    data = translation_data(FP23, IDENTITY)
    assert data.translation_length == 0
    assert data.segment == (base(FP23, "a"),)


def test_translation_data_loxodromic_segment():
    ab = word_of(FP22.ctx, ("a", 1), ("b", 1))
    data = translation_data(FP22, ab)
    assert data.translation_length == 2
    assert data.segment == (
        base(FP22, "a"),
        vertex_of(FP22, word_of(FP22.ctx, ("a", 1)), "b"),
        vertex_of(FP22, ab, "a"),
    )


def test_translation_length_matches_ball_minimum():
    rng = random.Random(19)
    for fp in (FP23, FP33):
        ball = tree_ball(fp, 6)
        for _ in range(25):
            g = rand_element(fp, rng, 4)
            data = translation_data(fp, g)
            displacement = min(tree_distance(fp, x, act(fp, g, x)) for x in ball)
            assert data.translation_length == displacement
            for u, v in zip(data.segment, data.segment[1:]):
                assert adjacent(fp, u, v)
            if data.translation_length:
                assert act(fp, g, data.segment[0]) == data.segment[-1]


def test_wpd_certificate_examples():
    cert = wpd_certificate(FP23, [1], [1])
    assert cert.valid
    assert cert.translation_length == 2
    assert cert.stabilizer_pairs_checked == 2
    cert22 = wpd_certificate(FP22, [1], [1])
    assert cert22.valid
    assert cert22.stabilizer_pairs_checked == 1
    cert33 = wpd_certificate(FP33, [1], [1])
    assert cert33.valid
    assert cert33.stabilizer_pairs_checked == 4
    assert len(cert33.survivors) == 1


def test_wpd_certificate_padding_and_defaults():
    s3 = s3_table()
    fp = fp_of(cyclic(4), table_group(s3))
    cert = wpd_certificate(fp)
    assert cert.valid
    # gens default to minimal generating sets: one for Z4, two for S3
    assert cert.translation_length == 4
    assert cert.axis_vertices[0] == base(fp, "a")
    assert cert.axis_vertices[1] == base(fp, "b")
    assert cert.axis_vertices[2] == act(fp, cert.g, base(fp, "a"))
    assert cert.axis_vertices[3] == act(fp, cert.g, base(fp, "b"))


def test_wpd_penultimate_segment_vertex_is_translated_base():
    for fp in (FP22, FP23, FP33):
        cert = wpd_certificate(fp)
        data = translation_data(fp, cert.g)
        assert data.segment[-2] == act(fp, cert.g, base(fp, fp.sides[1]))


def test_wpd_generator_validation():
    with pytest.raises(IdentityGenerator):
        wpd_certificate(FP23, [1], [0])
    fp = fp_of(cyclic(4), cyclic(3))
    with pytest.raises(NotGenerating):
        wpd_certificate(fp, [2], [1])
    with pytest.raises(NotGenerating):
        wpd_certificate(fp, [], [1])


CERT_FACTORS = {
    "Z2": z2(), "Z3": cyclic(3), "Z4": cyclic(4), "Z6": cyclic(6),
    "S3": table_group(s3_table()), "D4": table_group(d4_table()),
}


def _random_generators(table, rng):
    """A random generating list of non-identity elements, repeats allowed."""
    while True:
        gens = [rng.randrange(1, table.order) for _ in range(rng.randint(1, 4))]
        if len(reference_subgroup_closure(table, gens)) == table.order:
            return gens


@pytest.mark.parametrize("pair", list(itertools.combinations_with_replacement(CERT_FACTORS, 2)),
                         ids="*".join)
def test_wpd_certificate_matches_reference(pair):
    fp = fp_of(*(CERT_FACTORS[name] for name in pair))
    assert wpd_certificate(fp) == reference_wpd_certificate(fp)
    rng = random.Random(29)
    gens = [_random_generators(fp.factor(side), rng) for side in fp.sides]
    assert wpd_certificate(fp, *gens) == reference_wpd_certificate(fp, *gens)


def test_wpd_certificate_matches_reference_on_larger_automorphism_groups():
    v4 = direct_product_table(cyclic_table(2), cyclic_table(2))
    z2_cubed = table_group(direct_product_table(v4, cyclic_table(2)))  # |Aut| = 168
    for fp in (fp_of(table_group(q8_table()), table_group(d4_table())), fp_of(z2_cubed, z2_cubed)):
        assert wpd_certificate(fp) == reference_wpd_certificate(fp)


def test_wpd_certificate_decides_the_stabilizer_one_factor_at_a_time(monkeypatch):
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return act_auto(*args)

    def forbidden(*args):
        raise AssertionError("the certificate re-derived the axis")

    monkeypatch.setattr(tree, "act_auto", counting)
    for name in ("translation_data", "act", "tree_distance"):
        monkeypatch.setattr(tree, name, forbidden)
    cert = wpd_certificate(fp_of(table_group(d4_table()), table_group(d4_table())))
    assert cert.valid
    assert cert.stabilizer_pairs_checked == 64
    assert calls <= 4 * (8 + 8)  # trying every pair took 256


def test_act_auto_fixes_a_vertex_exactly_when_each_factor_part_does():
    d4, s3 = d4_table(), s3_table()
    fp = fp_of(table_group(d4), table_group(s3))
    id_a, id_b = identity_perm(d4.order), identity_perm(s3.order)
    ball = tree_ball(fp, 2)
    for alpha, beta in itertools.product(automorphisms(d4), automorphisms(s3)):
        for x in ball:
            fixed = act_auto(fp, alpha, beta, x) == x
            assert fixed == (act_auto(fp, alpha, id_b, x) == x and act_auto(fp, id_a, beta, x) == x)


def test_malnormality_examples():
    assert malnormality_check(FP22, 4).holds == (True, True)
    assert malnormality_check(FP23, 4).holds == (True, True)
    assert malnormality_check(FP23, 4).witnesses == (None, None)


def test_generation_probe():
    A = base(FP23, "a")
    B = base(FP23, "b")
    assert generation_probe(FP23, A, B, 1) == GENERATES_ALL
    aB = vertex_of(FP23, word_of(FP23.ctx, ("a", 1)), "b")
    # the shared coset element is a, so factor elements need three stabilizer
    # letters (a * conjugate * a); radius 2 is genuinely not enough
    assert generation_probe(FP23, A, aB, 2) == NOT_WITHIN_RADIUS
    assert generation_probe(FP23, A, aB, 3) == GENERATES_ALL
    ab = word_of(FP22.ctx, ("a", 1), ("b", 1))
    abA = vertex_of(FP22, ab, "a")
    assert generation_probe(FP22, base(FP22, "a"), abA, 6) == NOT_WITHIN_RADIUS


def test_adjacent_pairs_generate_within_scaled_radius():
    rng = random.Random(23)
    for fp in (FP22, FP23):
        ball = tree_ball(fp, 3)
        pairs = [
            (x, y)
            for x, y in itertools.combinations(ball, 2)
            if adjacent(fp, x, y)
        ]
        for x, y in rng.sample(pairs, min(12, len(pairs))):
            radius = 2 * max(len(x.rep), len(y.rep)) + 3
            assert generation_probe(fp, x, y, radius) == GENERATES_ALL


def test_ball_elements_counts():
    # alternating words over Z2 * Z3: level sizes 1, 3, 4, 6
    words = ball_elements(FP23, 3)
    assert len(words) == 1 + 3 + 4 + 6
    assert len(set(words)) == len(words)
    assert max(len(w) for w in words) == 3
