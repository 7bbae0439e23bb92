import random

import pytest
from hypothesis import given, settings

import gpkit.classify as cls
from gpkit import cyclic, graph, infinite_cyclic, opaque, table_group, uniform, z2
from gpkit.graphs import find_sil, induced, join_decompose, matches_complete_join_pairs
from gpkit.groups import NO, UNKNOWN, YES, QuotientFlags
from gpkit.labeled import LabeledGraph

from .conftest import contexts_st
from .helpers import all_graphs, classify_racg, relabel, s3_table, sil_implies_vast

S3 = s3_table()


def ctx_of(g, *descs):
    return LabeledGraph(g, tuple(descs))


def test_classify_t_examples():
    k2 = graph("ab", ["ab"])
    assert cls.classify_T(ctx_of(k2, table_group(S3), table_group(S3))).value == YES
    two = graph("ab")
    assert cls.classify_T(ctx_of(two, z2(), opaque(QuotientFlags()))).value == NO
    unknown_ctx = ctx_of(k2, opaque(QuotientFlags(kazhdan_t=UNKNOWN)), z2())
    assert cls.classify_T(unknown_ctx).value == UNKNOWN
    no_ctx = ctx_of(k2, opaque(QuotientFlags(kazhdan_t=NO)), z2())
    assert cls.classify_T(no_ctx).value == NO


def test_classify_vastness_examples():
    two = graph("ab")
    v = cls.classify_vastness(ctx_of(two, z2(), cyclic(3)), cls.SQ_UNIVERSAL)
    assert v.value == YES
    assert any("not labeled by the order-2 group" in r for r in v.reasons)

    c4 = uniform(graph("abcd", ["ab", "bc", "cd", "da"]), z2())
    for prop in (cls.SQ_UNIVERSAL, cls.MANY_QUASIMORPHISMS, cls.NOT_BOUNDEDLY_GENERATED):
        assert cls.classify_vastness(c4, prop).value == NO

    p4 = uniform(graph("abcd", ["ab", "bc", "cd"]), z2())
    assert cls.classify_vastness(p4, cls.SQ_UNIVERSAL).value == YES


def test_classify_vastness_cone_clause():
    # cone vertex with SQ-universal central quotient decides the verdict
    k1 = graph("a")
    strong = opaque(QuotientFlags(sq_universal=YES))
    assert cls.classify_vastness(ctx_of(k1, strong), cls.SQ_UNIVERSAL).value == YES
    weak = opaque(QuotientFlags(sq_universal=NO))
    assert cls.classify_vastness(ctx_of(k1, weak), cls.SQ_UNIVERSAL).value == NO
    silent = opaque(QuotientFlags())
    assert cls.classify_vastness(ctx_of(k1, silent), cls.SQ_UNIVERSAL).value == UNKNOWN


def test_classify_vastness_unknown_does_not_mask_yes():
    g = graph("abc")
    ctx = ctx_of(g, opaque(QuotientFlags()), cyclic(3), z2())
    assert cls.classify_vastness(ctx, cls.SQ_UNIVERSAL).value == YES


def test_classify_vastness_opaque_core_vertex_stays_unknown():
    # an opaque core vertex has no known order: it may or may not be Z2
    for ctx in (ctx_of(graph("ab"), opaque(QuotientFlags()), z2()),
                ctx_of(graph("abcd", ["ab", "bc", "cd", "da"]),
                       opaque(QuotientFlags()), z2(), z2(), z2())):
        for prop in cls.ADMISSIBLE_PROPERTIES:
            v = cls.classify_vastness(ctx, prop)
            assert v.value == UNKNOWN
            assert "opaque labels leave a deciding clause open" in v.reasons


def test_custom_property_needs_flag():
    ctx = uniform(graph("ab"), z2())
    with pytest.raises(ValueError):
        cls.classify_vastness(ctx, "my_property")
    v = cls.classify_vastness(ctx, "my_property", assume_admissible=True)
    # two non-adjacent order-2 vertices: the group is virtually abelian
    assert v.value == NO


def test_classify_racg_examples():
    assert classify_racg(graph("abcd", ["ab", "bc", "cd"])).value == YES
    assert classify_racg(graph("abcd", ["ab", "bc", "cd", "da"])).value == NO
    assert classify_racg(graph("abc", ["ab", "bc", "ac"])).value == NO


def test_racg_large_examples():
    c4 = graph("abcd", ["ab", "bc", "cd", "da"])
    res = cls.racg_large(c4)
    assert not res.large
    assert sorted(kind for kind, _ in res.decomposition) == ["Dinf", "Dinf"]

    k2 = graph("ab", ["ab"])
    res = cls.racg_large(k2)
    assert not res.large
    assert sorted(kind for kind, _ in res.decomposition) == ["Z2", "Z2"]

    apex = graph("xuv", ["xu", "xv"])
    res = cls.racg_large(apex)
    assert not res.large
    assert sorted(kind for kind, _ in res.decomposition) == ["Dinf", "Z2"]
    for kind, block in res.decomposition:
        if kind == "Dinf":
            assert set(block) == {"u", "v"}

    assert cls.racg_large(graph("abcd", ["ab", "bc", "cd"])).large


def test_classify_equivalences_examples():
    c4 = uniform(graph("abcd", ["ab", "bc", "cd", "da"]), z2())
    pe = cls.classify_equivalences(c4)
    assert pe.entries == (False,) * 6
    assert pe.virtually_abelian

    two = ctx_of(graph("ab"), z2(), cyclic(3))
    pe = cls.classify_equivalences(two)
    assert pe.entries == (True,) * 6
    assert not pe.virtually_abelian

    k3 = uniform(graph("abc", ["ab", "bc", "ac"]), z2())
    pe = cls.classify_equivalences(k3)
    assert pe.entries == (False,) * 6
    assert pe.virtually_abelian


def test_classify_equivalences_rejects_non_finite():
    ctx = ctx_of(graph("ab"), z2(), infinite_cyclic())
    with pytest.raises(cls.NonFiniteLabel):
        cls.classify_equivalences(ctx)
    ctx2 = ctx_of(graph("ab"), z2(), opaque(QuotientFlags()))
    with pytest.raises(cls.NonFiniteLabel):
        cls.classify_equivalences(ctx2)


def test_classify_aut_t():
    k2 = graph("ab", ["ab"])
    assert cls.classify_aut_t(ctx_of(k2, z2(), z2())).value == YES
    assert cls.classify_aut_t(ctx_of(graph("ab"), z2(), z2())).value == NO
    k3 = graph("abc", ["ab", "bc", "ac"])
    mixed = ctx_of(k3, z2(), cyclic(3), table_group(S3))
    assert cls.classify_aut_t(mixed).value == YES
    with pytest.raises(cls.NonFiniteLabel):
        cls.classify_aut_t(ctx_of(graph("a"), infinite_cyclic()))


def test_classify_molecular():
    edge = graph("ab", ["ab"])
    assert cls.classify_molecular(ctx_of(edge, table_group(S3), table_group(S3))).value == YES
    c5 = uniform(graph("abcde", ["ab", "bc", "cd", "de", "ea"]), z2())
    assert cls.classify_molecular(c5).value == NO
    bad = ctx_of(graph("a"), opaque(QuotientFlags(kazhdan_t=NO)))
    assert cls.classify_molecular(bad).value == NO
    open_one = ctx_of(graph("a"), opaque(QuotientFlags()))
    assert cls.classify_molecular(open_one).value == UNKNOWN
    c4 = uniform(graph("abcd", ["ab", "bc", "cd", "da"]), z2())
    with pytest.raises(cls.NotMolecular):
        cls.classify_molecular(c4)


def test_bounded_generation_negated_in_one_place():
    for g in all_graphs(4):
        if not g.vertices:
            continue
        ctx = uniform(g, z2())
        report = cls.classify(ctx)
        nbg = cls.classify_vastness(ctx, cls.NOT_BOUNDEDLY_GENERATED)
        assert report.boundedly_generated.value == cls.tri_not(nbg.value)


def test_racg_specialization_small():
    for g in all_graphs(5):
        if not g.vertices:
            continue
        ctx = uniform(g, z2())
        assert cls.classify_vastness(ctx, cls.SQ_UNIVERSAL).value == classify_racg(g).value


def test_racg_specialization_via_core():
    for g in all_graphs(5):
        if not g.vertices:
            continue
        core = induced(g, join_decompose(g).core)
        ctx = uniform(g, z2())
        got = cls.classify_vastness(ctx, cls.SQ_UNIVERSAL).value
        assert got == (NO if matches_complete_join_pairs(core) else YES)
        if core.vertices:
            assert got == classify_racg(core).value


def test_sil_implies_vast_small():
    for g in all_graphs(5):
        assert sil_implies_vast(g)
        if find_sil(g) is not None:
            assert classify_racg(g).value == YES


def test_complete_graph_has_empty_core():
    ctx = uniform(graph("abc", ["ab", "bc", "ac"]), z2())
    report = cls.classify(ctx)
    assert report.property_t.value == YES
    assert report.join.core == ()
    assert report.sq_universal.value == NO


@given(contexts_st(max_n=5))
@settings(max_examples=120)
def test_verdicts_invariant_under_relabeling(ctx):
    rng = random.Random(sum(map(ord, "".join(ctx.graph.vertices))))
    vs = list(ctx.graph.vertices)
    perm = vs[:]
    rng.shuffle(perm)
    mapping = dict(zip(vs, perm))
    g2 = relabel(ctx.graph, mapping)
    ctx2 = LabeledGraph(g2, ctx.labels)
    for prop in (cls.SQ_UNIVERSAL, cls.MANY_QUASIMORPHISMS, cls.NOT_BOUNDEDLY_GENERATED):
        assert (
            cls.classify_vastness(ctx, prop).value
            == cls.classify_vastness(ctx2, prop).value
        )
    assert cls.classify_T(ctx).value == cls.classify_T(ctx2).value


@given(contexts_st(max_n=4, labels=(z2(), cyclic(3), table_group(S3))))
@settings(max_examples=150)
def test_equivalences_matches_sq_verdict(ctx):
    pe = cls.classify_equivalences(ctx)
    sq = cls.classify_vastness(ctx, cls.SQ_UNIVERSAL)
    assert pe.entries[0] == (sq.value == YES)
    assert pe.entries[5] == pe.entries[0]


def test_full_report_on_mixed_labels():
    g = graph("abc", ["ab"])
    ctx = ctx_of(g, cyclic(4), infinite_cyclic(), opaque(QuotientFlags()))
    report = cls.classify(ctx)
    assert report.equivalences is None
    assert report.aut_property_t is None
    assert report.racg_largeness is None
    assert report.sq_universal.value == YES
    assert any("trust" in n for n in report.notes)
