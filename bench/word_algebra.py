"""Workload `word-algebra`: library calls to `normal_form`, `multiply`, `invert`
and `retract` from `gpkit.words`.

`words` dominates: long words over many vertices; `graphs` is reached only
through adjacency lookups.  Every context carries the order-48 table, so the
per-call hashing of the context shows; one context carries Z/1000, whose dense
table shows in peak_rss_mb.
"""

from __future__ import annotations

import random

from common import Op, ensure_non_edge, random_edges, require, vertex_names
import tables

# (vertex count, edge density) of each labelled graph; a fixed grid, so that
# the seed changes the graphs but not the mix of shapes.
CONTEXTS = tuple((n, p) for n in (6, 8, 10, 12) for p in (0.2, 0.35, 0.5, 0.65, 0.8, 0.9))
# Word lengths per context, alternating between the two tuples.  Every
# context has a length-400 chain, so that those ops are a sixth of the mix
# and p90 falls inside that class rather than at its edge.
LENGTHS = ((25, 100, 400), (50, 200, 400))
BIG_CYCLIC = 1000
BIG_CYCLIC_CONTEXT = 4
SMALL_CYCLIC = (2, 3, 4, 5)


class WordAlgebra:
    name = "word-algebra"
    # Seconds one pass takes on the initial code (Python 3.11, 2 vCPUs); run.py
    # sizes a run from it.
    pass_seconds = 5.0

    def __init__(self, seed, work_dir):
        self.seed = seed
        rng = random.Random(f"{self.name}:{seed}")
        self.tables = {
            "g48": tables.relabel(tables.order48(), rng),
            "s3": tables.relabel(tables.s3(), rng),
            "d4": tables.relabel(tables.d4(), rng),
        }
        self.specs = []
        for ci, (n, p) in enumerate(CONTEXTS):
            edges = ensure_non_edge(rng, n, random_edges(rng, n, p))
            slots = list(range(n))
            rng.shuffle(slots)
            labels = [("cyclic", rng.choice(SMALL_CYCLIC)) for _ in range(n)]
            for name, v in zip(("g48", "s3", "d4"), slots):
                labels[v] = ("table", name)
            if ci == BIG_CYCLIC_CONTEXT:
                labels[slots[3]] = ("cyclic", BIG_CYCLIC)
            self.specs.append((n, edges, labels))

    def setup(self, gp):
        """Validate the tables and build every context with its word tables."""
        groups, words = gp.groups, gp.words
        descs = {name: groups.table_group(groups.validate(rows), source=name)
                 for name, rows in self.tables.items()}
        contexts = []
        for n, edges, labels in self.specs:
            names = vertex_names(n)
            g = gp.graphs.graph(names, [(names[a], names[b]) for a, b in edges])
            ctx = gp.labeled.LabeledGraph(g, tuple(
                descs[arg] if kind == "table" else
                groups.z2() if arg == 2 else groups.cyclic(arg)
                for kind, arg in labels))
            words.normal_form([], ctx)
            contexts.append(ctx)
        return contexts

    def _order(self, label):
        kind, arg = label
        return len(self.tables[arg]) if kind == "table" else arg

    def ops(self, r, gp, contexts):
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        chains = []
        for ci, (ctx, (n, edges, labels)) in enumerate(zip(contexts, self.specs)):
            orders = [self._order(lab) for lab in labels]
            adj = {frozenset(e) for e in edges}
            non_adjacent = [(a, b) for a in range(n) for b in range(a + 1, n)
                            if frozenset((a, b)) not in adj]
            tag = f"n={n} orders=" + ",".join(map(str, sorted(set(orders))))
            for length in LENGTHS[ci % len(LENGTHS)]:
                chains.append(_chain(gp, rng, ctx, orders, adj, rng.choice(non_adjacent),
                                     length, tag))
        rng.shuffle(chains)
        return [op for chain in chains for op in chain]


def _raw_word(rng, orders, length):
    n = len(orders)
    out = []
    for _ in range(length):
        v = rng.randrange(n)
        out.append((v, rng.randrange(1, orders[v])))
    return out


def _commuting_shuffle(rng, raw, adj):
    """Random swaps of neighbouring syllables on distinct, adjacent vertices."""
    w = list(raw)
    for _ in range(2 * len(w)):
        i = rng.randrange(len(w) - 1)
        if frozenset((w[i][0], w[i + 1][0])) in adj:
            w[i], w[i + 1] = w[i + 1], w[i]
    return w


def _chain(gp, rng, ctx, orders, adj, pair, length, tag):
    """Six dependent ops: a, b, w normal forms; m = a*b; w^-1; retract(m)."""
    words = gp.words
    names = ctx.graph.vertices

    def sylls(raw):
        return [words.Syllable(names[v], e) for v, e in raw]

    half = length // 2
    raws = {"a": _raw_word(rng, orders, half),
            "b": _raw_word(rng, orders, length - half),
            "w": _raw_word(rng, orders, length)}
    inputs = {k: sylls(raw) for k, raw in raws.items()}
    shuffled = {k: sylls(_commuting_shuffle(rng, raw, adj)) for k, raw in raws.items()}
    u, v = names[pair[0]], names[pair[1]]
    got = {}

    def normal_op(k):
        def run():
            got[k] = words.normal_form(inputs[k], ctx)
            return got[k]

        def check(res):
            require(words.normal_form(shuffled[k], ctx) == res,
                    "normal form changed under a commuting shuffle of the input")
        return Op("normal_form", f"L={len(raws[k])} {tag}", run, check)

    def run_multiply():
        got["m"] = words.multiply(got["a"], got["b"], ctx)
        return got["m"]

    def check_multiply(res):
        back = words.multiply(res, words.invert(got["b"], ctx), ctx)
        require(back == got["a"], "(a*b)*b^-1 != a")

    def check_invert(res):
        require(words.multiply(got["w"], res, ctx).is_identity, "w*w^-1 != 1")

    def check_retract(res):
        ra = words.retract(got["a"], u, v, ctx)
        rb = words.retract(got["b"], u, v, ctx)
        require(words.multiply(ra, rb, ctx) == res, "retract(a*b) != retract(a)*retract(b)")

    key = f"L={length} {tag}"
    return [
        normal_op("a"),
        normal_op("b"),
        normal_op("w"),
        Op("multiply", key, run_multiply, check_multiply),
        Op("invert", key, lambda: words.invert(got["w"], ctx), check_invert),
        Op("retract", key, lambda: words.retract(got["m"], u, v, ctx), check_retract),
    ]
