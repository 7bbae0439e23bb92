import random

import pytest
from hypothesis import given, settings

import gpkit.groups
from gpkit import cyclic, graph, infinite_cyclic, opaque, table_group, uniform, z2
from gpkit.graphs import join_decompose
from gpkit.groups import QuotientFlags, order_of
from gpkit.labeled import LabeledGraph
from gpkit.words import (
    IDENTITY,
    BadSyllable,
    NormalWord,
    SameVertex,
    Syllable,
    VerticesAdjacent,
    invert,
    multiply,
    normal_form,
    retract,
    word_of,
)

from .conftest import context_and_words_st, contexts_st
from .helpers import (
    WordSystem,
    all_graphs,
    commutes_with_all_generators,
    d4_table,
    equality_classes,
    random_graph,
    reference_normal_form,
    relabel,
    s3_table,
)

P3_Z2 = uniform(graph("abc", ["ab", "bc"]), z2())


def test_normal_form_spec_examples():
    assert word_of(P3_Z2, ("a", 1), ("a", 1)) == IDENTITY
    assert word_of(P3_Z2, ("b", 1), ("a", 1)).syllables == (
        Syllable("a", 1), Syllable("b", 1),
    )
    assert word_of(P3_Z2, ("a", 1), ("b", 1), ("c", 1), ("b", 1)).syllables == (
        Syllable("a", 1), Syllable("c", 1),
    )


def test_normal_form_accepts_identity_syllables():
    assert word_of(P3_Z2, ("a", 0)) == IDENTITY


def test_bad_syllable():
    with pytest.raises(BadSyllable):
        word_of(P3_Z2, ("z", 1))
    with pytest.raises(BadSyllable):
        word_of(P3_Z2, ("a", 2))
    ctx = LabeledGraph(graph("a"), (opaque(QuotientFlags()),))
    with pytest.raises(ValueError):
        word_of(ctx, ("a", 1))


def test_multiply_examples():
    w = word_of(P3_Z2, ("a", 1), ("b", 1))
    assert multiply(w, IDENTITY, P3_Z2) == w
    a = word_of(P3_Z2, ("a", 1))
    assert multiply(a, a, P3_Z2) == IDENTITY
    w2 = word_of(P3_Z2, ("b", 1), ("c", 1))
    assert multiply(w, w2, P3_Z2) == word_of(P3_Z2, ("a", 1), ("c", 1))


def test_invert_examples():
    assert invert(IDENTITY, P3_Z2) == IDENTITY
    a = word_of(P3_Z2, ("a", 1))
    assert invert(a, P3_Z2) == a
    zctx = uniform(graph("a"), infinite_cyclic())
    w = word_of(zctx, ("a", 5))
    assert invert(w, zctx).syllables == (Syllable("a", -5),)


def test_integer_exponent_factors():
    zctx = uniform(graph("ab"), infinite_cyclic())
    w = word_of(zctx, ("a", 2), ("b", -1), ("b", 1), ("a", -2))
    assert w == IDENTITY
    w2 = word_of(zctx, ("a", 2), ("b", 3), ("a", -2))
    assert len(w2) == 3


def test_retract_examples():
    w = word_of(P3_Z2, ("a", 1), ("b", 1), ("c", 1), ("b", 1))
    assert retract(w, "a", "c", P3_Z2) == word_of(P3_Z2, ("a", 1), ("c", 1))
    assert retract(IDENTITY, "a", "c", P3_Z2) == IDENTITY
    w2 = word_of(P3_Z2, ("a", 1), ("b", 1), ("a", 1), ("b", 1), ("a", 1))
    assert retract(w2, "a", "c", P3_Z2) == word_of(P3_Z2, ("a", 1))


def test_retract_preconditions():
    w = word_of(P3_Z2, ("a", 1))
    with pytest.raises(SameVertex):
        retract(w, "a", "a", P3_Z2)
    with pytest.raises(VerticesAdjacent):
        retract(w, "a", "b", P3_Z2)


def test_commutes_with_all_generators():
    assert commutes_with_all_generators(word_of(P3_Z2, ("b", 1)), P3_Z2)
    assert not commutes_with_all_generators(word_of(P3_Z2, ("a", 1)), P3_Z2)
    assert commutes_with_all_generators(IDENTITY, P3_Z2)


def test_single_generator_commutes_iff_cone_vertex():
    for g in all_graphs(5):
        if not g.vertices:
            continue
        ctx = uniform(g, z2())
        cone = set(join_decompose(g).cone)
        for v in g.vertices:
            w = word_of(ctx, (v, 1))
            assert commutes_with_all_generators(w, ctx) == (v in cone)


@given(context_and_words_st(n_words=1))
@settings(max_examples=150)
def test_normal_form_idempotent(cw):
    ctx, w = cw
    assert normal_form(w.syllables, ctx) == w


@given(context_and_words_st(n_words=3, max_len=4))
@settings(max_examples=100)
def test_multiply_associative(cw):
    ctx, w1, w2, w3 = cw
    left = multiply(multiply(w1, w2, ctx), w3, ctx)
    right = multiply(w1, multiply(w2, w3, ctx), ctx)
    assert left == right


@given(context_and_words_st(n_words=1))
@settings(max_examples=150)
def test_inverse_law(cw):
    ctx, w = cw
    assert multiply(w, invert(w, ctx), ctx) == IDENTITY
    assert multiply(invert(w, ctx), w, ctx) == IDENTITY


@given(context_and_words_st(n_words=2, max_len=4))
@settings(max_examples=100)
def test_retract_is_homomorphism(cw):
    ctx, w1, w2 = cw
    g = ctx.graph
    targets = [
        (u, v)
        for i, u in enumerate(g.vertices)
        for v in g.vertices[i + 1:]
        if not g.has_edge(u, v)
    ]
    for u, v in targets:
        lhs = retract(multiply(w1, w2, ctx), u, v, ctx)
        rhs = multiply(retract(w1, u, v, ctx), retract(w2, u, v, ctx), ctx)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# Oracle agreement

ORACLE_CONTEXTS = [
    uniform(graph("abc", ["ab", "bc"]), z2()),
    uniform(graph("abc", ["ab", "bc", "ac"]), cyclic(3)),
    LabeledGraph(graph("abc", ["ab"]), (z2(), cyclic(3), z2())),
    LabeledGraph(graph("abcd", ["ab", "bc", "cd", "da"]), (z2(), z2(), cyclic(3), z2())),
    uniform(graph("ab"), cyclic(3)),
]


@pytest.mark.parametrize("ctx", ORACLE_CONTEXTS, ids=range(len(ORACLE_CONTEXTS)))
def test_normal_form_matches_rewriting_closure(ctx):
    """Engine equality and closure equality define the same partition."""
    system = WordSystem(ctx)
    length = 4 if len(system.alphabet) <= 5 else 3
    by_class = {}
    for cls in equality_classes(system, length):
        forms = {normal_form(system.to_normal_input(w), ctx) for w in cls}
        # one normal form per oracle class, and it is reachable inside the class
        assert len(forms) == 1
        nf = forms.pop()
        key = tuple((s.vertex, s.element) for s in nf.syllables)
        assert key in cls or not cls
        assert nf not in by_class, "distinct oracle classes share a normal form"
        by_class[nf] = cls


@pytest.mark.parametrize("ctx", ORACLE_CONTEXTS[:3], ids=range(3))
def test_reduced_closure_members_have_equal_length(ctx):
    """All fully reduced words in one closure have the same syllable count."""
    system = WordSystem(ctx)
    rng = random.Random(11)
    words = [
        tuple(rng.choice(system.alphabet) for _ in range(rng.randint(0, 6)))
        for _ in range(120)
    ]
    for w in words:
        closure = system.closure(w)
        min_len = min(len(m) for m in closure)
        nf = normal_form(system.to_normal_input(w), ctx)
        assert len(nf) == min_len
        for m in closure:
            if len(m) == min_len:
                continue
            # a strictly longer member must admit a shortening somewhere in its
            # swap orbit, otherwise it would be reduced at the wrong length
            orbit = system.swap_orbit(m)
            assert any(
                len(mv) < len(o) for o in orbit for mv in system.moves(o)
            )


def _random_context(rng):
    """1-7 vertices declared in shuffled name order, mixed vertex groups."""
    n = rng.randint(1, 7)
    g = random_graph(rng, n, rng.random())
    g = relabel(g, dict(zip(g.vertices, rng.sample(g.vertices, n))))
    pool = (z2(), cyclic(3), cyclic(5), table_group(s3_table()), table_group(d4_table()),
            infinite_cyclic())
    return LabeledGraph(g, tuple(rng.choice(pool) for _ in g.vertices))


def _random_syllable(rng, ctx):
    v = rng.choice(ctx.graph.vertices)
    desc = ctx.label(v)
    if desc.kind == "Z":
        return Syllable(v, rng.randint(-3, 3))
    return Syllable(v, rng.randrange(order_of(desc)))


def test_normal_form_matches_reference():
    """The one-pass normal form equals the rescanning reference, syllable for syllable."""
    rng = random.Random(20240611)
    for _ in range(1500):
        ctx = _random_context(rng)
        raw = [_random_syllable(rng, ctx) for _ in range(rng.randint(0, 40))]
        assert normal_form(raw, ctx) == reference_normal_form(raw, ctx), (ctx, raw)


def test_large_cyclic_factor_needs_no_table(monkeypatch):
    def refuse(n):
        raise AssertionError(f"cyclic_table({n}) built")

    monkeypatch.setattr(gpkit.groups, "cyclic_table", refuse)
    ctx = LabeledGraph(graph("ab"), (cyclic(40000), z2()))
    w = word_of(ctx, ("a", 39999), ("b", 1), ("a", 2), ("a", 39999))
    assert w.syllables == (Syllable("a", 39999), Syllable("b", 1), Syllable("a", 1))
    assert multiply(w, invert(w, ctx), ctx) == IDENTITY
    with pytest.raises(BadSyllable):
        word_of(ctx, ("a", 40000))
