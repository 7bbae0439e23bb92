"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` (or scripts/run_acceptance.py)
to see the per-criterion lines.  Scales with stated runtime budgets: the word
oracle sweep caps word length adaptively by alphabet size so the whole
criterion stays inside its two-minute budget while covering every graph shape
on up to four vertices with every order-2/order-3 labeling.
"""

import itertools
import json
import random
from pathlib import Path

import pytest

import gpkit.classify as cls
from gpkit import cyclic, infinite_cyclic, table_group, uniform, z2
from gpkit.cli import CommandRequest, run
from gpkit.graphs import find_sil, induced, join_decompose
from gpkit.groups import YES
from gpkit.labeled import LabeledGraph
from gpkit.tree import act, malnormality_check, tree_distance, wpd_certificate
from gpkit.words import IDENTITY, NormalWord, Syllable, invert, multiply, normal_form, retract

from .helpers import (
    WordSystem,
    all_graphs,
    classify_racg,
    equality_classes,
    fp_of,
    graph_iso_classes,
    random_graph,
    reference_join_pairs_partition,
    s3_table,
    tree_ball,
    vertex_of,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
S3 = s3_table()

PAIR_DESCRIPTORS = (
    ("Z2", z2()),
    ("Z3", cyclic(3)),
    ("Z4", cyclic(4)),
    ("S3", table_group(S3)),
)
ALL_PAIRS = list(itertools.combinations_with_replacement(PAIR_DESCRIPTORS, 2))


def _passed(n, detail):
    print(f"[acceptance] criterion {n} PASS - {detail}")


# ---------------------------------------------------------------------------
# Criterion 1: normal-form equality == rewriting-closure equality


def _word_length_cap(alphabet_size):
    if alphabet_size <= 4:
        return 6
    if alphabet_size <= 6:
        return 5
    return 4


def _criterion1_contexts():
    for n in range(1, 5):
        reps = graph_iso_classes(n)
        for g in reps:
            for labels in itertools.product((z2(), cyclic(3)), repeat=n):
                yield LabeledGraph(g, labels)


def test_criterion_1_word_oracle_equivalence():
    contexts = words_checked = 0
    for ctx in _criterion1_contexts():
        system = WordSystem(ctx)
        cap = _word_length_cap(len(system.alphabet))
        seen_nf = set()
        for eq_class in equality_classes(system, cap):
            forms = {
                normal_form(system.to_normal_input(w), ctx) for w in eq_class
            }
            assert len(forms) == 1, "closure-equal words got distinct normal forms"
            nf = forms.pop()
            key = tuple((s.vertex, s.element) for s in nf.syllables)
            assert key in eq_class, "normal form not reachable by rewriting moves"
            assert nf not in seen_nf, "closure-distinct words share a normal form"
            seen_nf.add(nf)
            words_checked += len(eq_class)
        contexts += 1
    _passed(1, f"{words_checked} words over {contexts} labeled graphs, exact agreement")


# ---------------------------------------------------------------------------
# Criterion 2: tree action properties + malnormality, all 10 factor pairs


def _rand_element(fp, rng, max_len):
    sylls = []
    prev = None
    for _ in range(rng.randint(0, max_len)):
        v = rng.choice([s for s in fp.sides if s != prev])
        table = fp.factor(v)
        sylls.append(Syllable(v, rng.randint(1, table.order - 1)))
        prev = v
    return NormalWord(tuple(sylls))


def _rand_vertex(fp, rng, max_rep=5):
    side = rng.choice(fp.sides)
    w = _rand_element(fp, rng, max_rep)
    return vertex_of(fp, w, side)


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: f"{p[0][0]}*{p[1][0]}")
def test_criterion_2_tree_action_properties(pair):
    (name_a, desc_a), (name_b, desc_b) = pair
    fp = fp_of(desc_a, desc_b)
    rng = random.Random(f"claim1-{name_a}{name_b}")
    triples = 1100  # 10 pairs x 1100 >= 10^4 per property suite
    for _ in range(triples):
        g = _rand_element(fp, rng, 6)
        h = _rand_element(fp, rng, 6)
        x = _rand_vertex(fp, rng)
        y = _rand_vertex(fp, rng)
        # isometry
        assert tree_distance(fp, act(fp, g, x), act(fp, g, y)) == tree_distance(fp, x, y)
        # group action
        assert act(fp, g, act(fp, h, x)) == act(fp, multiply(g, h, fp.ctx), x)
        # bipartite parity
        assert tree_distance(fp, x, y) % 2 == (0 if x.side == y.side else 1)
    assert malnormality_check(fp, 4).holds == (True, True)
    _passed(2, f"{name_a}*{name_b}: {triples} triples, malnormality radius 4")


# ---------------------------------------------------------------------------
# Criterion 3: stabilizer certificate + brute-force translation length


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: f"{p[0][0]}*{p[1][0]}")
def test_criterion_3_wpd_certificate(pair):
    (name_a, desc_a), (name_b, desc_b) = pair
    fp = fp_of(desc_a, desc_b)
    cert = wpd_certificate(fp)
    assert cert.valid, "a non-identity automorphism pair fixed all four vertices"
    assert len(cert.survivors) == 1
    ell = cert.translation_length
    for x in cert.axis_vertices:
        assert tree_distance(fp, x, act(fp, cert.g, x)) == ell
    ball = tree_ball(fp, 6)
    brute = min(tree_distance(fp, x, act(fp, cert.g, x)) for x in ball)
    assert brute == ell
    _passed(
        3,
        f"{name_a}*{name_b}: valid, {cert.stabilizer_pairs_checked} pairs checked, "
        f"length {ell} = ball minimum over {len(ball)} vertices",
    )


# ---------------------------------------------------------------------------
# Criterion 4: Theorem-F / order-2 specialization, exhaustive on <= 6 vertices


def test_criterion_4_racg_specialization_exhaustive():
    graphs_checked = 0
    for n in range(1, 7):
        for g in all_graphs(n):
            ctx = uniform(g, z2())
            vast = cls.classify_vastness(ctx, cls.SQ_UNIVERSAL).value
            assert vast == classify_racg(g).value
            if find_sil(g) is not None:
                assert vast == YES
            graphs_checked += 1
    _passed(4, f"{graphs_checked} labeled graphs on <= 6 vertices, exact agreement")


# ---------------------------------------------------------------------------
# Criterion 5: six-way equivalence consistency on sampled instances


def test_criterion_5_equivalence_consistency():
    rng = random.Random("prop-e")
    labels = (z2(), cyclic(3), table_group(S3))
    instances = 10_000
    for _ in range(instances):
        n = rng.randint(1, 5)
        g = random_graph(rng, n, p=rng.choice((0.2, 0.5, 0.8)))
        ctx = LabeledGraph(g, tuple(rng.choice(labels) for _ in range(n)))
        summary = cls.classify_equivalences(ctx)
        sq = cls.classify_vastness(ctx, cls.SQ_UNIVERSAL).value
        assert summary.entries[0] == (sq == YES)
        assert summary.entries[0] == (not summary.virtually_abelian)
        assert summary.entries == (summary.entries[0],) * 6
        # independent route: virtual abelianness from an explicit partition of the core
        core = join_decompose(g).core
        assert summary.virtually_abelian == (
            all(ctx.label(v).order == 2 for v in core)
            and reference_join_pairs_partition(induced(g, core)) is not None
        )
    _passed(5, f"{instances} sampled instances on <= 5 vertices, exact agreement")


# ---------------------------------------------------------------------------
# Criterion 6: named fixtures with cited clauses in the trace


def _classify_fixture(name):
    status, out = run(CommandRequest("classify", str(FIXTURES / name), as_json=True))
    assert status == 0
    return json.loads(out)


def test_criterion_6_named_fixtures():
    fp23 = _classify_fixture("fp23.graph")
    assert fp23["verdicts"]["sqUniversal"] == "yes"
    assert fp23["verdicts"]["propertyT"] == "no"
    assert any(
        r.startswith("sqUniversal:") and "not labeled by the order-2 group" in r
        for r in fp23["reasons"]
    )
    assert any(
        r.startswith("propertyT:") and "complete-graph criterion fails" in r
        for r in fp23["reasons"]
    )

    c4 = _classify_fixture("c4.graph")
    assert c4["verdicts"]["sqUniversal"] == "no"
    assert c4["verdicts"]["manyQuasimorphisms"] == "no"
    assert c4["verdicts"]["boundedlyGenerated"] == "yes"
    assert c4["verdicts"]["propertyT"] == "no"
    assert any(
        r.startswith("sqUniversal:") and "join of a clique with non-adjacent pairs" in r
        for r in c4["reasons"]
    )

    k2s3 = _classify_fixture("k2s3.graph")
    assert k2s3["verdicts"]["propertyT"] == "yes"
    assert any(
        r.startswith("propertyT:") and "every central quotient has property (T)" in r
        for r in k2s3["reasons"]
    )

    c5 = _classify_fixture("c5.graph")
    assert c5["verdicts"]["molecularPropertyT"] == "no"
    assert any(
        r.startswith("molecularPropertyT:") and "molecular graph with more than one edge" in r
        for r in c5["reasons"]
    )
    _passed(6, "four named fixtures match, deciding clauses cited in traces")


# ---------------------------------------------------------------------------
# Criterion 7: algebraic laws at scale


_LAW_LABELS = (z2(), cyclic(3), cyclic(4), table_group(S3), infinite_cyclic())


def _rand_ctx(rng):
    n = rng.randint(1, 4)
    g = random_graph(rng, n, p=rng.choice((0.25, 0.5, 0.75)))
    return LabeledGraph(g, tuple(rng.choice(_LAW_LABELS) for _ in range(n)))


def _rand_raw_word(rng, ctx, max_len=6):
    sylls = []
    for _ in range(rng.randint(0, max_len)):
        v = rng.choice(ctx.graph.vertices)
        desc = ctx.label(v)
        if desc.kind == "Z":
            e = rng.choice((-3, -2, -1, 1, 2, 3))
        else:
            e = rng.randint(1, desc.order - 1)
        sylls.append(Syllable(v, e))
    return sylls


def test_criterion_7_algebraic_laws():
    rounds = 10_000
    rng = random.Random("laws")
    for _ in range(rounds):
        ctx = _rand_ctx(rng)
        raw = _rand_raw_word(rng, ctx)
        w = normal_form(raw, ctx)
        assert normal_form(w.syllables, ctx) == w

    rng = random.Random("laws-mul")
    for _ in range(rounds):
        ctx = _rand_ctx(rng)
        w1 = normal_form(_rand_raw_word(rng, ctx, 4), ctx)
        w2 = normal_form(_rand_raw_word(rng, ctx, 4), ctx)
        w3 = normal_form(_rand_raw_word(rng, ctx, 4), ctx)
        assert multiply(multiply(w1, w2, ctx), w3, ctx) == multiply(w1, multiply(w2, w3, ctx), ctx)

    rng = random.Random("laws-inv")
    for _ in range(rounds):
        ctx = _rand_ctx(rng)
        w = normal_form(_rand_raw_word(rng, ctx), ctx)
        assert multiply(w, IDENTITY, ctx) == w
        assert multiply(IDENTITY, w, ctx) == w
        assert multiply(w, invert(w, ctx), ctx) == IDENTITY

    rng = random.Random("laws-retract")
    checked = 0
    while checked < rounds:
        ctx = _rand_ctx(rng)
        g = ctx.graph
        targets = [
            (u, v)
            for i, u in enumerate(g.vertices)
            for v in g.vertices[i + 1:]
            if not g.has_edge(u, v)
        ]
        if not targets:
            continue
        u, v = rng.choice(targets)
        w1 = normal_form(_rand_raw_word(rng, ctx, 5), ctx)
        w2 = normal_form(_rand_raw_word(rng, ctx, 5), ctx)
        lhs = retract(multiply(w1, w2, ctx), u, v, ctx)
        rhs = multiply(retract(w1, u, v, ctx), retract(w2, u, v, ctx), ctx)
        assert lhs == rhs
        checked += 1

    _passed(7, f"{rounds} instances per law: idempotence, associativity, "
               "identity, inverse, retraction homomorphism")
