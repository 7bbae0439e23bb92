import itertools
import string

import pytest
from hypothesis import strategies as st

from gpkit import cyclic, graph, table_group, z2
from gpkit.labeled import LabeledGraph
from gpkit.words import Syllable, normal_form

from .helpers import d4_table, s3_table


@pytest.fixture(scope="session")
def s3():
    return s3_table()


@pytest.fixture(scope="session")
def d4():
    return d4_table()


_S3 = s3_table()

LABEL_POOL = (z2(), cyclic(3), cyclic(4), table_group(_S3))


@st.composite
def graphs_st(draw, min_n=1, max_n=5):
    n = draw(st.integers(min_n, max_n))
    vs = string.ascii_lowercase[:n]
    pairs = list(itertools.combinations(vs, 2))
    chosen = [p for p in pairs if draw(st.booleans())]
    return graph(vs, chosen)


@st.composite
def contexts_st(draw, min_n=1, max_n=4, labels=LABEL_POOL):
    g = draw(graphs_st(min_n=min_n, max_n=max_n))
    descs = tuple(draw(st.sampled_from(labels)) for _ in g.vertices)
    return LabeledGraph(g, descs)


@st.composite
def words_st(draw, ctx, max_len=6):
    n = draw(st.integers(0, max_len))
    sylls = []
    for _ in range(n):
        v = draw(st.sampled_from(ctx.graph.vertices))
        e = draw(st.integers(1, ctx.label(v).order - 1))
        sylls.append(Syllable(v, e))
    return normal_form(sylls, ctx)


@st.composite
def context_and_words_st(draw, n_words=1, max_n=4, max_len=6):
    ctx = draw(contexts_st(max_n=max_n))
    ws = tuple(draw(words_st(ctx, max_len=max_len)) for _ in range(n_words))
    return (ctx, *ws)
