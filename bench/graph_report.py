"""Workload `graph-report`: `gpkit classify --json` and `gpkit graph-info --json`
on generated graph files.

Loads cli, graphs, classify and groups.validate; never touches words or tree.
Every request re-parses its file, so each `table:` vertex re-runs validate.
"""

from __future__ import annotations

import json
import random

import networkx as nx

from common import Op, call_cli, graph_text, random_edges, require, vertex_names
import tables

# Eighteen vertex counts, each with one density and one label scheme, so
# that every (density, scheme) pair occurs twice.  The costs spread evenly
# instead of clustering at a few sizes, so the percentiles fall among ops of
# similar cost.
SIZES = tuple(range(9, 61, 3))
DENSITIES = (("sparse", 0.1), ("medium", 0.5), ("dense", 0.9))
# all-Z2 takes the largeness and partition path; finite labels add table
# validation; infinite/opaque labels leave verdicts to the flags.
SCHEMES = ("z2", "finite", "infinite")
# Clique joined with k non-adjacent pairs whose partners sit k positions
# apart: the partition search in join_pairs_partition grows about 4x for
# every two pairs added.
PAIR_COUNTS = (6, 8, 10, 12, 14)
# A cycle with one chord spanning this many steps has girth 3, 4, 5 or 6, so
# molecularity (girth >= 5) comes out both ways.
CHORD_SPANS = (2, 3, 4, 5)
MALFORMED = ("duplicate-vertex", "undeclared-edge", "self-loop",
             "bad-descriptor", "non-group-table", "short-table")
SMALL_FINITE = ("Z2", "Z/3", "Z/4", "Z/5", "table:s3.tbl", "table:d4.tbl")
TRI = ("yes", "no", "unknown")


class GraphReport:
    name = "graph-report"
    # Seconds one pass takes on the initial code (Python 3.11, 2 vCPUs); run.py
    # sizes a run from it.
    pass_seconds = 3.0

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.dir = work_dir
        rng = random.Random(f"{self.name}:{seed}")
        files = {
            "s3.tbl": tables.relabel(tables.s3(), rng),
            "d4.tbl": tables.relabel(tables.d4(), rng),
            "s4.tbl": tables.relabel(tables.s4(), rng),
            "g48.tbl": tables.relabel(tables.order48(), rng),
            "bad24.tbl": tables.corrupt(tables.relabel(tables.s4(), rng), rng),
        }
        for fname, t in files.items():
            (work_dir / fname).write_text(tables.table_text(t))
        short = tables.table_text(files["s4.tbl"]).splitlines()[:-3]
        (work_dir / "short.tbl").write_text("\n".join(short) + "\n")

    def setup(self, gp):
        return None

    def ops(self, r, gp, state):
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        ops = []
        for i, n in enumerate(SIZES):
            dname, p = DENSITIES[i % len(DENSITIES)]
            scheme = SCHEMES[i // len(DENSITIES) % len(SCHEMES)]
            edges = random_edges(rng, n, p)
            labels = _labels(rng, n, scheme)
            key = f"n={n} {dname} {scheme}"
            ops += self._report_ops(gp, f"p{r}-n{n}", n, edges, labels, key)
        for j, span in enumerate(CHORD_SPANS):
            n = rng.randint(12, 30)
            start = rng.randrange(n)
            edges = sorted({tuple(sorted((i, (i + 1) % n))) for i in range(n)}
                           | {tuple(sorted((start, (start + span) % n)))})
            labels = _labels(rng, n, SCHEMES[j % len(SCHEMES)])
            ops += self._report_ops(gp, f"p{r}-ring{span}", n, edges, labels,
                                    f"ring n={n} chord={span}")
        for k in PAIR_COUNTS:
            n, edges = _clique_join_pairs(rng, k)
            ops += self._report_ops(gp, f"p{r}-cjp{k}", n, edges, ["Z2"] * n, f"cjp pairs={k}")
        for m, kind in enumerate(MALFORMED):
            ops.append(self._malformed_op(gp, rng, f"p{r}-bad{m}", kind))
        rng.shuffle(ops)
        return ops

    def _report_ops(self, gp, stem, n, edges, labels, key):
        names = vertex_names(n)
        path = self.dir / f"{stem}.graph"
        path.write_text(graph_text(names, labels, edges))
        facts = _Facts(names, edges, labels)
        cli = gp.cli
        return [
            Op("classify", key, lambda: call_cli(cli, ["classify", str(path), "--json"]),
               facts.check_classify),
            Op("graph-info", key, lambda: call_cli(cli, ["graph-info", str(path), "--json"]),
               facts.check_graph_info),
        ]

    def _malformed_op(self, gp, rng, stem, kind):
        n = rng.randint(8, 16)
        names = vertex_names(n)
        labels = [rng.choice(SMALL_FINITE) for _ in names]
        edges = random_edges(rng, n, 0.4)
        text = graph_text(names, labels, edges)
        if kind == "duplicate-vertex":
            text += f"vertex {names[rng.randrange(n)]} Z2\n"
        elif kind == "undeclared-edge":
            text += f"edge {names[rng.randrange(n)]} w{n}\n"
        elif kind == "self-loop":
            v = names[rng.randrange(n)]
            text += f"edge {v} {v}\n"
        elif kind == "bad-descriptor":
            text += f"vertex w{n} {rng.choice(('Z/1', 'Z/x', 'Q8', 'opaque{T=maybe}'))}\n"
        elif kind == "non-group-table":
            text += f"vertex w{n} table:bad24.tbl\n"
        else:
            text += f"vertex w{n} table:short.tbl\n"
        path = self.dir / f"{stem}.graph"
        path.write_text(text)
        sub = rng.choice(("classify", "graph-info"))
        cli = gp.cli
        return Op("malformed", kind, lambda: call_cli(cli, [sub, str(path), "--json"]),
                  _check_rejected)


def _labels(rng, n, scheme):
    if scheme == "z2":
        return ["Z2"] * n
    if scheme == "finite":
        labels = [rng.choice(SMALL_FINITE) for _ in range(n)]
        a, b = rng.sample(range(n), 2)
        labels[a], labels[b] = "table:s4.tbl", "table:g48.tbl"
        return labels
    labels = [rng.choice(("Z2", "Z/3", "Z")) for _ in range(n)]
    flags = ",".join(f"{k}={rng.choice(TRI)}" for k in ("T", "SQ", "QH", "BG"))
    labels[rng.randrange(n)] = f"opaque{{{flags}}}"
    return labels


def _clique_join_pairs(rng, k):
    """Vertex order: pair partners x_i ... y_i are k positions apart, with the
    clique vertices dropped in at random places."""
    order = [("x", i) for i in range(k)] + [("y", i) for i in range(k)]
    for c in range(rng.randint(1, 4)):
        order.insert(rng.randrange(len(order) + 1), ("c", c))
    pos = {v: i for i, v in enumerate(order)}
    non_edges = {frozenset((pos[("x", i)], pos[("y", i)])) for i in range(k)}
    n = len(order)
    edges = [(a, b) for a in range(n) for b in range(a + 1, n)
             if frozenset((a, b)) not in non_edges]
    return n, edges


def _check_rejected(res):
    require(res.status == 1, f"malformed input gave exit status {res.status}")
    require(res.out == "", "malformed input wrote to stdout")
    msg = res.err.rstrip("\n")
    require(msg and "\n" not in msg, f"expected a one-line error, got {res.err!r}")


class _Facts:
    """networkx view of one generated graph; the oracle for its reports."""

    def __init__(self, names, edges, labels):
        self.names = names
        self.edges = edges
        self.labels = labels

    def _graph(self):
        g = nx.Graph()
        g.add_nodes_from(range(len(self.names)))
        g.add_edges_from(self.edges)
        return g

    def _common(self, res):
        require(res.status == 0, f"exit status {res.status}: {res.err.strip()}")
        d = json.loads(res.out)
        g = self._graph()
        n = len(self.names)
        cdeg = [n - 1 - g.degree(i) for i in range(n)]
        cone = [self.names[i] for i in range(n) if cdeg[i] == 0]
        core = [self.names[i] for i in range(n) if cdeg[i] > 0]
        require(d["join"] == {"cone": cone, "core": core}, "join decomposition differs from networkx")
        molecular = (nx.is_connected(g) and min(dict(g.degree).values()) >= 2
                     and nx.girth(g) >= 5)
        return d, g, cdeg, molecular

    def check_classify(self, res):
        d, g, cdeg, molecular = self._common(res)
        v = d["verdicts"]
        n = len(self.names)
        pairs_join = max(cdeg) <= 1
        if all(lab == "Z2" for lab in self.labels):
            expected = "no" if pairs_join else "yes"
            require(v.get("racgLarge") == expected,
                    f"racgLarge {v.get('racgLarge')} but complement max degree {max(cdeg)}")
            if pairs_join:
                self._check_decomposition(d["reasons"], g, cdeg)
        else:
            require("racgLarge" not in v, "racgLarge reported for labels other than all-Z2")
        if not any(lab.startswith("opaque") for lab in self.labels):
            core_non_z2 = any(self.labels[i] != "Z2" for i in range(n) if cdeg[i] > 0)
            vast = "yes" if core_non_z2 or not pairs_join else "no"
            for name in ("sqUniversal", "manyQuasimorphisms"):
                require(v[name] == vast, f"{name} {v[name]}, expected {vast}")
            require(v["boundedlyGenerated"] == ("no" if vast == "yes" else "yes"),
                    "boundedlyGenerated is not the negation of the vastness verdict")
        complete = max(cdeg) == 0
        if not complete:
            require(v["propertyT"] == "no", "propertyT must fail on a non-complete graph")
        require(("molecularPropertyT" in v) == molecular,
                "molecular verdict presence disagrees with networkx girth and connectivity")
        finite = all(lab != "Z" and not lab.startswith("opaque") for lab in self.labels)
        require((d["propositionE"] is not None) == finite,
                "equivalence summary presence disagrees with finiteness of labels")

    def _check_decomposition(self, reasons, g, cdeg):
        prefix = "racgLarge: group decomposes as "
        line = next((r for r in reasons if r.startswith(prefix)), None)
        require(line is not None, "non-large all-Z2 report lacks its decomposition")
        blocks = set()
        for part in line[len(prefix):].split(" + "):
            kind, _, rest = part.partition("(")
            members = frozenset(rest.rstrip(")").split(","))
            require(kind == ("Z2" if len(members) == 1 else "Dinf"), f"bad block {part!r}")
            blocks.add(members)
        want = {frozenset((self.names[i],)) for i in range(len(cdeg)) if cdeg[i] == 0}
        want |= {frozenset((self.names[a], self.names[b])) for a, b in nx.complement(g).edges}
        require(blocks == want, "decomposition blocks differ from the complement's edges")

    def check_graph_info(self, res):
        d, g, cdeg, molecular = self._common(res)
        names = self.names
        require(d["vertices"] == names, "vertex list differs")
        require(d["complementDegrees"] == dict(zip(names, cdeg)), "complement degrees differ")
        require(d["joinOfCliqueAndPairs"] == (max(cdeg) <= 1),
                "pairs-join verdict disagrees with the complement's maximum degree")
        require(d["molecular"] == molecular, "molecularity disagrees with networkx")
        sil = d["sil"]
        if sil is None:
            return
        idx = {v: i for i, v in enumerate(names)}
        u, v = idx[sil["u"]], idx[sil["v"]]
        comp = {idx[x] for x in sil["component"]}
        require(u != v and not g.has_edge(u, v), "SIL pair is adjacent")
        cut = set(g[u]) & set(g[v])
        require(comp and u not in comp and v not in comp and not comp & cut,
                "SIL component meets the pair or the common link")
        rest = g.subgraph(set(g) - cut)
        require(nx.node_connected_component(rest, min(comp)) == comp,
                "SIL component is not a component of the graph minus the common link")

