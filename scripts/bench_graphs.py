#!/usr/bin/env python3
"""Scaling record for the graph layer and table validation: graph-file
parsing, graph construction, `is_molecular`, `find_sil`, `classify` and the
`graph-info` command on growing all-Z2 graphs, and `groups.validate` on
permutation-group tables, for two or more source checkouts in one process.

    python3 scripts/bench_graphs.py parent=PARENT_ROOT change=.

Each LABEL=ROOT names a source checkout; its `src/gpkit` is loaded under the
module name `gpkit_<LABEL>` (every import inside the package is relative), so
the checkouts run side by side.  The labels take turns call by call, the
first label alternating too, so drift of the machine's speed hits every label
alike.  The numbers are written to `BENCH_graphs.json` at the root of the
checkout holding this script, one run per label.

Graph families: random graphs with round(p * n(n-1)/2) edges at p = 0.5
(seeded), and rings with one chord spanning four steps (girth 5, so
`is_molecular` runs its whole girth test and there is no SIL).  n = 40 to
1280.  The "parse" row times `cli.parse_graph_file` on the graph's file text
(one `vertex` line per vertex, one `edge` line per edge).  The "build" rows
time `graphs.graph(names, pairs)` from the same prepared names and vertex-name
pairs, alone or followed by one function, so adjacency is paid inside every
row however the graph stores it.  The "graph-info" row runs
`cli.main(["graph-info", FILE, "--json"])` on the same text written to a file,
with stdout captured.  Each timing is the best of up to five calls per label.
Once a label's call takes longer than BUDGET_S, its larger n of that row and
family are recorded as null: at the parent commit of `BENCH_graphs.json`,
`find_sil` floods once per non-adjacent pair and passes the budget at n=320.

The "validate" row times `groups.validate` on the multiplication tables of
S4 (order 24), Z2 x S4 (48), S5 (120) and PSL(2,7) (168, acting on the
projective line over F7), each built here from permutation generators.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import itertools
import json
import os
import platform
import random
import sys
import tempfile
import time
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / "BENCH_graphs.json"
SIZES = (40, 80, 160, 320, 640, 1280)
BUDGET_S = 1.0
REPEATS = 5
SPEND_S = 2.0
DENSITY = 0.5
CHORD_SPAN = 4


def random_family(n):
    rng = random.Random(f"bench-graphs:{n}")
    pairs = list(itertools.combinations(range(n), 2))
    return sorted(rng.sample(pairs, round(DENSITY * len(pairs))))


def ring_family(n):
    return [(i, (i + 1) % n) for i in range(n)] + [(0, CHORD_SPAN)]


FAMILIES = {f"random p={DENSITY}": random_family, f"ring+chord span {CHORD_SPAN}": ring_family}


def perm_group_table(gens):
    """Multiplication table of the permutation group the generators span,
    identity first."""
    ident = tuple(range(len(gens[0])))
    seen, walk = {ident}, [ident]
    for p in walk:
        for g in gens:
            q = tuple(p[g[i]] for i in range(len(p)))
            if q not in seen:
                seen.add(q)
                walk.append(q)
    perms = sorted(seen)
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[i]] for i in range(len(p)))] for q in perms] for p in perms]


def direct_product_table(t1, t2):
    n2 = len(t2)
    pairs = [(a, b) for a in range(len(t1)) for b in range(n2)]
    return [[t1[a1][b1] * n2 + t2[a2][b2] for (b1, b2) in pairs] for (a1, a2) in pairs]


def validate_tables():
    s4 = perm_group_table([(1, 0, 2, 3), (1, 2, 3, 0)])
    shift = tuple((x + 1) % 7 for x in range(7)) + (7,)  # x -> x + 1, point 7 is infinity
    flip = (7,) + tuple(-pow(x, -1, 7) % 7 for x in range(1, 7)) + (0,)  # x -> -1/x
    tables = [s4, direct_product_table([[0, 1], [1, 0]], s4),
              perm_group_table([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]), perm_group_table([shift, flip])]
    assert [len(t) for t in tables] == [24, 48, 120, 168]
    return tables


def load(label, root):
    """gpkit from ROOT/src under the module name gpkit_<label>."""
    pkg = (root / "src" / "gpkit").resolve()
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"no gpkit package under {pkg.parent}")
    name = f"gpkit_{label}"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")
    return module


def alternate(calls):
    """Best wall time of each label's call.  The labels take turns call by
    call, in an order that flips every round; a label stops after REPEATS
    calls or once SPEND_S seconds have gone into its calls."""
    labels = list(calls)
    best, spent = {}, dict.fromkeys(labels, 0.0)
    for k in range(REPEATS):
        for label in labels if k % 2 == 0 else labels[::-1]:
            if spent[label] > SPEND_S:
                continue
            start = time.perf_counter()
            calls[label]()
            took = time.perf_counter() - start
            best[label] = min(best.get(label, took), took)
            spent[label] += took
    return best


def graph_file(names, pairs):
    lines = [f"vertex {v} Z2" for v in names] + [f"edge {a} {b}" for a, b in pairs]
    return "\n".join(lines) + "\n"


def functions(gp, path):
    def built(fn):
        return lambda names, pairs, text: fn(gp.graph(names, pairs))

    def graph_info(names, pairs, text):
        with contextlib.redirect_stdout(io.StringIO()):
            assert gp.cli.main(["graph-info", str(path), "--json"]) == 0

    return {
        "parse": lambda names, pairs, text: gp.cli.parse_graph_file(text),
        "build": built(lambda g: g),
        "build+is_molecular": built(gp.is_molecular),
        "build+find_sil": built(gp.find_sil),
        "build+classify": built(lambda g: gp.classify.classify(gp.uniform(g, gp.z2()))),
        "graph-info": graph_info,
    }


def measure(gpkits, workdir):
    path = workdir / "bench.graph"
    rows_of = {label: functions(gp, path) for label, gp in gpkits.items()}
    results = {label: {} for label in gpkits}
    for family, edges_of in FAMILIES.items():
        for fname in next(iter(rows_of.values())):
            over = set()
            for label in gpkits:
                results[label].setdefault(family, {})[fname] = {}
            for n in SIZES:
                names = tuple(f"v{i}" for i in range(n))
                pairs = [(names[a], names[b]) for a, b in edges_of(n)]
                text = graph_file(names, pairs)
                path.write_text(text)
                live = [label for label in gpkits if label not in over]
                took = alternate({label: (lambda fn=rows_of[label][fname]: fn(names, pairs, text))
                                  for label in live})
                for label in gpkits:
                    t = took.get(label)
                    results[label][family][fname][str(n)] = None if t is None else round(t, 6)
                    if t is not None and t > BUDGET_S:
                        over.add(label)
                print(f"{family:>20}  {fname:<18} n={n:<4} " + "  ".join(
                    f"{label} {'-' if t is None else f'{t * 1e3:.2f} ms'}"
                    for label, t in ((label, took.get(label)) for label in gpkits)), flush=True)
    tables = validate_tables()
    for label in gpkits:
        results[label]["permutation groups"] = {"validate": {}}
    for rows in tables:
        took = alternate({label: (lambda v=gp.validate: v(rows))
                          for label, gp in gpkits.items()})
        for label in gpkits:
            results[label]["permutation groups"]["validate"][str(len(rows))] = round(took[label], 6)
        print(f"{'permutation groups':>20}  {'validate':<18} n={len(rows):<4} " + "  ".join(
            f"{label} {took[label] * 1e3:.2f} ms" for label in gpkits), flush=True)
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Time graph-file parsing, graph construction alone and followed by "
                    "is_molecular, find_sil or classify, graph-info, and table validation, "
                    "alternating source checkouts call by call in one process.")
    parser.add_argument("roots", nargs="+", metavar="LABEL=ROOT",
                        help="a label and the source checkout whose src/ holds its gpkit")
    args = parser.parse_args(argv)
    roots = {}
    for item in args.roots:
        label, sep, root = item.partition("=")
        if not sep or not label.isidentifier() or label in roots:
            parser.error(f"expected distinct LABEL=ROOT with LABEL an identifier, got {item!r}")
        roots[label] = Path(root)
    gpkits = {label: load(label, root) for label, root in roots.items()}
    with tempfile.TemporaryDirectory() as workdir:
        results = measure(gpkits, Path(workdir))
    record = {
        "harness": "scripts/bench_graphs.py",
        "unit": "seconds, best of up to 5 calls per label, labels alternating call by call "
                "in one process; null = skipped after a call over the budget",
        "sizes": list(SIZES),
        "validate_tables": {"24": "S4", "48": "Z2 x S4", "120": "S5", "168": "PSL(2,7)"},
        "runs": {label: {"python": platform.python_version(), "cpus": os.cpu_count(),
                         "budget_s": BUDGET_S, "results": results[label]}
                 for label in gpkits},
    }
    OUT.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
