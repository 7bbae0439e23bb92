"""Workload `tree-certify`: `gpkit tree --wpd --radius r` on two-vertex files
for the 21 factor pairs from {Z2, Z3, Z4, Z6, S3, D4}, interleaved with
`gpkit tree --axis` on long random words in larger graphs.

`tree` and `groups.automorphisms` dominate; `words` is called very often but
on short alternating words, unlike in word-algebra.
"""

from __future__ import annotations

import itertools
import json
import random

from common import Op, call_cli, ensure_non_edge, graph_text, random_edges, require, vertex_names
import tables

FACTORS = ("Z2", "Z3", "Z4", "Z6", "S3", "D4")
TOKENS = {"Z2": "Z2", "Z3": "Z/3", "Z4": "Z/4", "Z6": "Z/6",
          "S3": "table:s3.tbl", "D4": "table:d4.tbl"}
AUT_ORDER = {"Z2": 1, "Z3": 2, "Z4": 2, "Z6": 2, "S3": 6, "D4": 8}
PAIRS = tuple(itertools.combinations_with_replacement(FACTORS, 2))
# Pairs whose radius-4 malnormality scan stays under about 0.35 s on the
# initial code; the larger pairs take 0.8 to 3 s and run to radius 3 only.
RADIUS4 = {("Z2", f) for f in FACTORS} | {("Z3", "Z3"), ("Z3", "Z4"), ("Z3", "Z6"),
                                          ("Z3", "S3"), ("Z4", "Z4")}
# One axis request per (vertex count, edge density, word length).
AXIS_GRID = tuple((n, p, length) for n in range(6, 13) for p in (0.2, 0.5, 0.8)
                  for length in (50, 100, 200))
# BFS oracle radius around the base vertex; the D4*D4 ball has 3,200 vertices.
ORACLE_RADIUS = 4
SAMPLED_EDGES = 3


class TreeCertify:
    name = "tree-certify"
    # Seconds one pass takes on the initial code (Python 3.11, 2 vCPUs); run.py
    # sizes a run from it.
    pass_seconds = 8.5

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.dir = work_dir
        rng = random.Random(f"{self.name}:{seed}")
        cyclic = {"Z2": 2, "Z3": 3, "Z4": 4, "Z6": 6}
        self.tables = {f: tables.cyclic(k) for f, k in cyclic.items()}
        self.tables["S3"] = tables.relabel(tables.s3(), rng)
        self.tables["D4"] = tables.relabel(tables.d4(), rng)
        for f in ("S3", "D4"):
            (work_dir / f"{f.lower()}.tbl").write_text(tables.table_text(self.tables[f]))
        self.min_gens = {f: tables.min_generators(t) for f, t in self.tables.items()}
        for a, b in PAIRS:
            (work_dir / f"{a}-{b}.graph").write_text(
                graph_text(["a", "b"], [TOKENS[a], TOKENS[b]], []))
        self._oracle = {}

    def setup(self, gp):
        return None

    def ops(self, r, gp, state):
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        ops = []
        for pair in PAIRS:
            for radius in (1, 2, 3, 4) if pair in RADIUS4 else (1, 2, 3):
                ops.append(self._wpd_op(gp, rng, pair, radius))
        for i, (n, density, length) in enumerate(AXIS_GRID):
            ops.append(self._axis_op(gp, rng, f"p{r}-axis{i}", n, density, length))
        rng.shuffle(ops)
        return ops

    # -- stabilizer certificate ------------------------------------------------

    def _wpd_op(self, gp, rng, pair, radius):
        a, b = pair
        argv = ["tree", str(self.dir / f"{a}-{b}.graph"), "-u", "a", "-v", "b",
                "--wpd", "--radius", str(radius), "--json"]
        counts = []
        for flag, f in (("--gens-a", a), ("--gens-b", b)):
            if rng.random() < 0.5:
                gens = tables.random_generators(self.tables[f], rng)
                argv += [flag, ",".join(map(str, gens))]
                counts.append(len(gens))
            else:
                counts.append(self.min_gens[f])
        padded = max(counts)
        cli = gp.cli

        def check(res):
            require(res.status == 0, f"exit status {res.status}: {res.err.strip()}")
            d = json.loads(res.out)
            require(d["valid"] is True, "stabilizer certificate not valid")
            require(d["malnormalAtRadius"] == {"radius": radius, "holds": True},
                    "malnormality scan failed")
            require(d["survivors"] == 1, "more than the identity pair survived")
            require(d["stabilizerPairsChecked"] == AUT_ORDER[a] * AUT_ORDER[b],
                    "automorphism pairs checked != |Aut A| * |Aut B|")
            require(d["translationLength"] == 2 * padded,
                    "translation length != twice the padded generator count")
            sylls = _parse_element(d["element"])
            require(len(sylls) == 2 * padded and _alternates(sylls), "element not alternating")
            self._check_distances(gp, pair, d["axisVertices"])

        return Op("wpd", f"{a}*{b} r={radius}", lambda: call_cli(cli, argv), check)

    def _check_distances(self, gp, pair, vertices):
        """tree_distance from the base vertex against the BFS oracle."""
        fp, base, ball = self._oracle_for(gp, pair)
        for x in vertices:
            tv = gp.tree.TreeVertex(x["side"], gp.cli.parse_word_literal(x["rep"], fp.ctx))
            d = gp.tree.tree_distance(fp, base, tv)
            want = ball.get((x["side"], tuple(_parse_element(x["rep"]))))
            if want is not None:
                require(d == want, f"tree_distance {d} != BFS distance {want}")
            else:
                require(d > ORACLE_RADIUS, f"tree_distance {d} for a vertex outside the BFS ball")

    def _oracle_for(self, gp, pair):
        """BFS distances from the base vertex, kept as plain tuples so that
        the cache adds nothing for the garbage collector to scan while later
        ops are timed."""
        if pair not in self._oracle:
            path = self.dir / f"{pair[0]}-{pair[1]}.graph"
            ctx = gp.cli.parse_graph_file(path.read_text(), base_dir=self.dir)
            fp = gp.tree.free_product(ctx, "a", "b")
            base = gp.tree.base(fp, "a")
            ball = {(x.side, tuple((s.vertex, s.element) for s in x.rep.syllables)): d
                    for x, d in gp.helpers.bfs_distances(fp, base, ORACLE_RADIUS).items()}
            self._oracle[pair] = (fp, base, ball)
        return self._oracle[pair]

    # -- axis of a retracted word ----------------------------------------------

    def _axis_op(self, gp, rng, stem, n, density, length):
        names = vertex_names(n)
        edges = ensure_non_edge(rng, n, random_edges(rng, n, density))
        factors = [rng.choice(FACTORS) for _ in names]
        path = self.dir / f"{stem}.graph"
        path.write_text(graph_text(names, [TOKENS[f] for f in factors], edges))
        adj = {frozenset(e) for e in edges}
        u, v = rng.choice([(x, y) for x, y in itertools.combinations(range(n), 2)
                           if frozenset((x, y)) not in adj])
        literal = "*".join(
            f"{names[x]}[{rng.randrange(1, len(self.tables[factors[x]]))}]"
            for x in (rng.randrange(n) for _ in range(length)))
        argv = ["tree", str(path), "-u", names[u], "-v", names[v], "--axis", literal, "--json"]
        mul = {names[u]: self.tables[factors[u]], names[v]: self.tables[factors[v]]}
        check_rng = random.Random(f"{stem}:{self.seed}")
        cli = gp.cli

        def check(res):
            require(res.status == 0, f"exit status {res.status}: {res.err.strip()}")
            d = json.loads(res.out)
            sylls = _parse_element(d["element"])
            require(all(s in mul for s, _ in sylls) and _alternates(sylls),
                    "retracted element is not an alternating word over u and v")
            tl = _translation_length(sylls, mul)
            require(d["translationLength"] == tl,
                    f"translation length {d['translationLength']} != {tl} by cyclic reduction")
            seg = d["segment"]
            require(len(seg) == (tl + 1 if tl else 1), "segment length")
            ctx = gp.cli.parse_graph_file(path.read_text(), base_dir=self.dir)
            fp = gp.tree.free_product(ctx, names[u], names[v])
            tv = [gp.tree.TreeVertex(x["side"], gp.cli.parse_word_literal(x["rep"], fp.ctx))
                  for x in seg]
            for i in check_rng.sample(range(len(tv) - 1), min(SAMPLED_EDGES, len(tv) - 1)):
                require(tv[i + 1] in gp.helpers.tree_neighbors(fp, tv[i]),
                        "consecutive segment vertices are not BFS neighbours")
                require(gp.tree.tree_distance(fp, tv[i], tv[i + 1]) == 1,
                        "tree_distance between consecutive segment vertices != 1")
            if tl:
                g = gp.cli.parse_word_literal(d["element"], fp.ctx)
                require(gp.tree.act(fp, g, tv[0]) == tv[-1], "g does not carry the segment's ends")
                require(gp.tree.tree_distance(fp, tv[0], tv[-1]) == tl,
                        "segment ends are not a translation length apart")

        return Op("axis", f"n={n} p={density} L={length}", lambda: call_cli(cli, argv), check)


def _parse_element(text):
    if text == "1":
        return []
    out = []
    for tok in text.split("*"):
        v, _, e = tok.partition("[")
        out.append((v, int(e.rstrip("]"))))
    return out


def _alternates(sylls):
    return all(x[0] != y[0] for x, y in zip(sylls, sylls[1:]))


def _translation_length(sylls, mul):
    """Alternating length after cyclic reduction, computed on the benchmark's
    own factor tables: conjugating by the first syllable folds it into the
    last one while both ends lie in the same factor."""
    w = list(sylls)
    while len(w) >= 2 and w[0][0] == w[-1][0]:
        (v, first), (_, last) = w[0], w[-1]
        e = mul[v][last][first]
        w = w[1:-1] + ([(v, e)] if e else [])
    return len(w) if len(w) >= 2 else 0
