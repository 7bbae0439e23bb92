"""The bitmask graph layer against the searches it replaced (tests/helpers.py)
and against networkx as an independent oracle, down to the adjacency queries
and join read-offs that run on the same masks."""

import random

import networkx as nx
import pytest

import gpkit.graphs as graphs
from gpkit.graphs import (
    JoinDecomposition,
    SimplicialGraph,
    complement_degrees,
    find_sil,
    graph,
    is_molecular,
    join_decompose,
    join_pairs_partition,
)

from .helpers import (
    all_graphs,
    connected_components,
    reference_connected_components,
    reference_find_sil,
    reference_is_molecular,
)

PETERSEN = graph(
    "abcdefghij",
    ["ab", "bc", "cd", "de", "ea",
     "af", "bg", "ch", "di", "ej",
     "fh", "fi", "gi", "gj", "hj"],
)


def _shuffled_random_graph(rng, n, p):
    """Random graph on n vertices with edge probability p, declared in a
    shuffled order so that declaration index and name order disagree."""
    names = [f"x{i}" for i in range(n)]
    edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    rng.shuffle(names)
    return graph(names, edges)


def _ring_with_chord(n, span, start=0):
    """Cycle on n vertices plus one chord spanning `span` steps; its girth is
    min(span, n - span) + 1."""
    names = [f"r{i}" for i in range(n)]
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    edges.append((names[start], names[(start + span) % n]))
    return graph(names, edges)


def _nx(g: SimplicialGraph):
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(tuple(e) for e in g.edges)
    return h


def _nx_molecular(h) -> bool:
    return (h.number_of_nodes() > 0 and nx.is_connected(h)
            and min(d for _, d in h.degree) >= 2 and nx.girth(h) >= 5)


def _nx_sil(g: SimplicialGraph, h):
    """The SIL definition checked on every non-adjacent pair, in declaration
    order: the first pair whose common link leaves a component avoiding both,
    with the component holding the earliest declared vertex among those."""
    index = {v: i for i, v in enumerate(g.vertices)}
    components = {}  # by common link: sparse graphs repeat a few, the empty one most
    for i, u in enumerate(g.vertices):
        for v in g.vertices[i + 1:]:
            if h.has_edge(u, v):
                continue
            cut = frozenset(h[u]) & frozenset(h[v])
            if cut not in components:
                rest = h.subgraph(w for w in g.vertices if w not in cut)
                components[cut] = list(nx.connected_components(rest))
            avoiding = [c for c in components[cut] if u not in c and v not in c]
            if avoiding:
                return u, v, frozenset(min(avoiding, key=lambda c: min(map(index.get, c))))
    return None


def _nx_pairs_partition(g: SimplicialGraph, h):
    """Singletons of the vertices the complement isolates and its edges as
    pairs, listed by first vertex in declaration order; None when some
    vertex misses two others."""
    index = {v: i for i, v in enumerate(g.vertices)}
    hc = nx.complement(h)
    if any(d > 1 for _, d in hc.degree):
        return None
    blocks = [(v,) for v in g.vertices if hc.degree(v) == 0]
    blocks += [tuple(sorted(e, key=index.get)) for e in hc.edges]
    return tuple(sorted(blocks, key=lambda b: index[b[0]]))


def _check_queries(g: SimplicialGraph, h):
    """The adjacency queries and the join read-offs against networkx."""
    n = len(g.vertices)
    for v in g.vertices:
        assert g.link(v) == frozenset(h[v])
        assert g.degree(v) == h.degree(v)
        for u in g.vertices:
            assert g.has_edge(v, u) == h.has_edge(v, u)
    assert join_decompose(g) == JoinDecomposition(
        tuple(v for v in g.vertices if h.degree(v) == n - 1),
        tuple(v for v in g.vertices if h.degree(v) < n - 1),
    )
    assert complement_degrees(g) == dict(nx.complement(h).degree)
    assert join_pairs_partition(g) == _nx_pairs_partition(g, h)


def _check(g: SimplicialGraph, h=None):
    """Compare the adjacency queries and all three searches with the
    references and with networkx; return whether g has a SIL."""
    h = _nx(g) if h is None else h
    _check_queries(g, h)
    comps = connected_components(g)
    assert comps == reference_connected_components(g)
    assert set(comps) == {frozenset(c) for c in nx.connected_components(h)}
    assert is_molecular(g) == reference_is_molecular(g) == _nx_molecular(h)
    witness = find_sil(g)
    assert witness == reference_find_sil(g)
    want = _nx_sil(g, h)
    if want is None:
        assert witness is None
    else:
        assert witness is not None and (witness.u, witness.v, witness.component) == want
    return witness is not None


def test_every_graph_on_five_vertices():
    found = [_check(g) for g in all_graphs(5)]
    assert any(found) and not all(found)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.9])
def test_random_graphs_in_shuffled_order(p):
    rng = random.Random(f"graphs:{p}")
    found = []
    for n in list(range(1, 25)) + [32, 45, 60]:
        for _ in range(2 if n < 25 else 1):
            found.append(_check(_shuffled_random_graph(rng, n, p)))
    # the SIL search must answer both ways in the sample, so that neither a
    # search that always gives up nor one that always finds is missed
    assert any(found) and not all(found)


@pytest.mark.parametrize("n, p", [(n, p) for n in (80, 120) for p in (0.1, 0.3, 0.7)])
def test_larger_random_graphs_in_shuffled_order(n, p):
    _check(_shuffled_random_graph(random.Random(f"graphs:{n}:{p}"), n, p))


def test_sil_search_floods_once_per_component_of_each_star(monkeypatch):
    # G(120, 0.5) has no SIL, so every vertex is searched; a flood per
    # non-adjacent pair took about 3,500 calls
    g = _shuffled_random_graph(random.Random("floods"), 120, 0.5)
    h = _nx(g)
    floods = 0
    real = graphs._flood

    def counting(*args):
        nonlocal floods
        floods += 1
        return real(*args)

    monkeypatch.setattr(graphs, "_flood", counting)
    assert find_sil(g) is None
    stars = sum(nx.number_connected_components(h.subgraph(set(h) - set(h[u]) - {u})) for u in h)
    assert floods <= stars + len(g.vertices)


def test_molecular_sparse_graphs_occur_and_agree():
    # sparse connected graphs with min degree >= 2 exercise the girth pass,
    # which random graphs at the parametrized densities mostly skip
    rng = random.Random("molecular")
    verdicts = []
    for n in range(5, 41):
        g = _shuffled_random_graph(rng, n, 3.0 / n)
        h = _nx(g)
        _check_queries(g, h)
        assert is_molecular(g) == reference_is_molecular(g) == _nx_molecular(h)
        verdicts.append(is_molecular(g))
    for n in range(5, 40, 3):
        for span in range(2, n - 1):
            g = _ring_with_chord(n, span, start=span % n)
            h = _nx(g)
            _check_queries(g, h)
            assert nx.girth(h) == min(span, n - span) + 1
            assert is_molecular(g) == reference_is_molecular(g) == _nx_molecular(h)
            verdicts.append(is_molecular(g))
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("n, span", [(n, s) for n in (7, 9, 12) for s in (2, 3, 4, 5)])
def test_rings_with_a_chord(n, span):
    g = _ring_with_chord(n, span, start=n // 2)
    assert is_molecular(g) == (min(span, n - span) + 1 >= 5)
    _check(g)


def test_petersen_graph():
    assert is_molecular(PETERSEN)
    assert connected_components(PETERSEN) == [frozenset(PETERSEN.vertices)]
    assert not _check(PETERSEN)



def test_two_disjoint_pentagons_are_not_molecular():
    # every other condition holds, so only the connectivity check rejects it
    g = graph("abcdefghij", ["ab", "bc", "cd", "de", "ea", "fg", "gh", "hi", "ij", "jf"])
    assert not is_molecular(g)
    assert is_molecular(graph("abcde", ["ab", "bc", "cd", "de", "ea"]))
    assert _check(g)  # (a, c) cut at b leaves the other pentagon


def test_empty_graph_and_single_vertex():
    empty = graph("")
    assert connected_components(empty) == []
    assert not is_molecular(empty)
    assert find_sil(empty) is None
    single = graph("a")
    assert connected_components(single) == [frozenset("a")]
    assert not is_molecular(single)
    assert find_sil(single) is None
    _check(empty)
    _check(single)


def test_sil_witness_takes_the_earliest_declared_pair_and_component():
    # names sort against declaration order, so a tie-break by name would differ
    w = find_sil(graph(["v", "u", "q", "p"], [("v", "u")]))
    assert (w.u, w.v, w.component) == ("v", "q", frozenset({"p"}))
    w = find_sil(graph(["u", "v", "q", "p", "a"], [("u", "a"), ("v", "a"), ("q", "a")]))
    assert (w.u, w.v, w.component) == ("u", "v", frozenset({"q"}))
