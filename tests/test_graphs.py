import doctest
import math

import pytest
from hypothesis import given

import gpkit.graphs
from gpkit.graphs import (
    SimplicialGraph,
    complement_degrees,
    connected_components,
    find_sil,
    girth,
    graph,
    induced,
    is_complete,
    is_molecular,
    join_decompose,
    join_pairs_partition,
    matches_complete_join_pairs,
)

from .conftest import graphs_st
from .helpers import (
    all_graphs,
    complement,
    distance,
    random_graph,
    reference_join_pairs_partition,
)

P3 = graph("abc", ["ab", "bc"])
P4 = graph("abcd", ["ab", "bc", "cd"])
C4 = graph("abcd", ["ab", "bc", "cd", "da"])
C5 = graph("abcde", ["ab", "bc", "cd", "de", "ea"])
K3 = graph("abc", ["ab", "bc", "ac"])


def test_docstrings():
    failures, _ = doctest.testmod(gpkit.graphs)
    assert failures == 0


def test_graph_rejects_bad_edges():
    # each constructor error keeps its exact message
    cases = [
        (("a", "b"), [("a",)], "edge ['a'] must join two distinct vertices"),
        (("a", "b", "c"), [("a", "b", "c")], "edge ['a', 'b', 'c'] must join two distinct vertices"),
        (("a",), [("a", "b")], "edge ['a', 'b'] references undeclared vertices"),
        (("a", "b"), [("x", "b")], "edge ['b', 'x'] references undeclared vertices"),
        (("a",), [("x", "y")], "edge ['x', 'y'] references undeclared vertices"),
        (("a", "a"), [], "duplicate vertex ids"),
        (("a", "b", "a"), [("a", "b")], "duplicate vertex ids"),
    ]
    for vertices, edges, message in cases:
        with pytest.raises(ValueError) as err:
            SimplicialGraph(vertices, frozenset(frozenset(e) for e in edges))
        assert str(err.value) == message


def test_join_decompose_path():
    jd = join_decompose(P3)
    assert jd.cone == ("b",)
    assert jd.core == ("a", "c")


def test_join_decompose_complete_and_cycle():
    assert join_decompose(K3).cone == ("a", "b", "c")
    assert join_decompose(K3).core == ()
    jd = join_decompose(C4)
    assert jd.cone == ()
    assert jd.core == ("a", "b", "c", "d")


def test_is_complete():
    assert is_complete(K3)
    assert is_complete(graph("a"))
    assert not is_complete(graph("ab"))


def test_matches_complete_join_pairs_examples():
    assert matches_complete_join_pairs(graph("ab"))
    assert matches_complete_join_pairs(C4)
    assert not matches_complete_join_pairs(P4)
    assert matches_complete_join_pairs(graph(""))


def test_complement_examples():
    assert complement(K3).edges == frozenset()
    assert complement(C4).edges == frozenset(
        {frozenset({"a", "c"}), frozenset({"b", "d"})}
    )
    assert complement(graph("ab")).edges == frozenset({frozenset({"a", "b"})})


@given(graphs_st(max_n=6))
def test_complement_involution(g):
    assert complement(complement(g)) == g


def test_find_sil_examples():
    w = find_sil(graph("uvw"))
    assert (w.u, w.v, w.component) == ("u", "v", frozenset({"w"}))
    assert find_sil(P3) is None
    assert find_sil(C4) is None


def test_find_sil_symmetric_and_valid():
    for g in all_graphs(5):
        w = find_sil(g)
        if w is None:
            continue
        assert distance(g, w.u, w.v) >= 2
        cut = g.link(w.u) & g.link(w.v)
        rest = induced(g, [x for x in g.vertices if x not in cut])
        assert w.component in connected_components(rest)
        assert w.u not in w.component and w.v not in w.component


def test_is_molecular_examples():
    assert is_molecular(C5)
    assert not is_molecular(C4)
    assert not is_molecular(P3)
    assert not is_molecular(graph("a"))


def test_girth_values():
    assert girth(C4) == 4
    assert girth(C5) == 5
    assert girth(K3) == 3
    assert girth(P4) == math.inf
    petersen = graph(
        "abcdefghij",
        ["ab", "bc", "cd", "de", "ea",
         "af", "bg", "ch", "di", "ej",
         "fh", "fi", "gi", "gj", "hj"],
    )
    assert girth(petersen) == 5


def _check_partition_against_search(g):
    blocks = join_pairs_partition(g)
    assert blocks == reference_join_pairs_partition(g)
    assert matches_complete_join_pairs(g) == (blocks is not None)


def test_join_condition_against_partition_search_small():
    for n in range(7):
        for g in all_graphs(n):
            _check_partition_against_search(g)


def test_join_condition_against_partition_search_seven_vertices():
    # exhausting all 2^21 graphs on 7 vertices is out of budget; sample instead,
    # with dense graphs so that pairs-joins occur, in shuffled declaration order
    import random

    rng = random.Random(7)
    for _ in range(3000):
        g = random_graph(rng, 7, p=rng.choice((0.5, 0.8, 0.95)))
        order = list(g.vertices)
        rng.shuffle(order)
        _check_partition_against_search(SimplicialGraph(tuple(order), g.edges))


def test_join_pairs_partition_blocks():
    blocks = join_pairs_partition(C4)
    assert blocks is not None
    assert sorted(map(len, blocks)) == [2, 2]
    for b in blocks:
        assert not C4.has_edge(*b)


@given(graphs_st(max_n=6))
def test_join_decompose_is_a_join(g):
    jd = join_decompose(g)
    assert set(jd.cone) | set(jd.core) == set(g.vertices)
    for u in jd.cone:
        for w in g.vertices:
            if w != u:
                assert g.has_edge(u, w)
    n = len(g.vertices)
    for v in jd.core:
        assert g.degree(v) < n - 1


@given(graphs_st(max_n=6))
def test_core_pairs_join_iff_complement_perfect_matching(g):
    jd = join_decompose(g)
    core = induced(g, jd.core)
    comp = complement(core)
    if matches_complete_join_pairs(core):
        # no universal vertex in the core, so the complement has no isolated vertex
        assert all(comp.degree(v) == 1 for v in core.vertices)
    else:
        assert any(comp.degree(v) > 1 for v in core.vertices)


def test_complement_degree_profile():
    assert complement_degrees(P4) == {"a": 2, "b": 1, "c": 1, "d": 2}
