#!/usr/bin/env python3
"""Scaling record for the graph layer: graph-file parsing, graph
construction, and `is_molecular`, `find_sil` and `classify` each on a graph
built inside the timed call, on growing all-Z2 graphs.

    python3 scripts/bench_graphs.py SOURCE_ROOT --label parent
    python3 scripts/bench_graphs.py . --label change

SOURCE_ROOT is a source checkout; gpkit is imported from its `src/`.  Each run
stores its numbers under `--label` in `BENCH_graphs.json` at the root of the
checkout holding this script and keeps the other labels there, so running it
on the parent and on the change gives the before/after record.

Families: random graphs with round(p * n(n-1)/2) edges at p = 0.5 (seeded),
and rings with one chord spanning four steps (girth 5, so `is_molecular`
runs its whole girth test and there is no SIL).  n = 40 to 1280.  The
"parse" row times `cli.parse_graph_file` on the graph's file text (one
`vertex` line per vertex, one `edge` line per edge).  The other rows time
`graphs.graph(names, pairs)` from the same prepared names and vertex-name
pairs, alone ("build") or followed by one function, so adjacency is paid
inside every row however the graph stores it.  Each timing is the best of up
to five calls.  Once a call takes longer than BUDGET_S, larger n of that row
and family are recorded as null: `find_sil` floods once per non-adjacent
pair, so on the random family it passes the budget near n=640.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import sys
import time
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / "BENCH_graphs.json"
SIZES = (40, 80, 160, 320, 640, 1280)
BUDGET_S = 10.0
DENSITY = 0.5
CHORD_SPAN = 4


def random_family(n):
    rng = random.Random(f"bench-graphs:{n}")
    pairs = list(itertools.combinations(range(n), 2))
    return sorted(rng.sample(pairs, round(DENSITY * len(pairs))))


def ring_family(n):
    return [(i, (i + 1) % n) for i in range(n)] + [(0, CHORD_SPAN)]


FAMILIES = {f"random p={DENSITY}": random_family, f"ring+chord span {CHORD_SPAN}": ring_family}


def best_time(call, repeats=5, spend=2.0):
    """Best wall time of call() over up to `repeats` runs, stopping early
    once `spend` seconds have gone into the runs."""
    best = spent = 0.0
    for k in range(repeats):
        start = time.perf_counter()
        call()
        took = time.perf_counter() - start
        best = took if k == 0 else min(best, took)
        spent += took
        if spent > spend:
            break
    return best


def graph_file(names, pairs):
    lines = [f"vertex {v} Z2" for v in names] + [f"edge {a} {b}" for a, b in pairs]
    return "\n".join(lines) + "\n"


def measure(gp):
    from gpkit.classify import classify
    from gpkit.cli import parse_graph_file
    from gpkit.graphs import find_sil, graph, is_molecular

    def built(fn):
        return lambda names, pairs, text: fn(graph(names, pairs))

    functions = {
        "parse": lambda names, pairs, text: parse_graph_file(text),
        "build": built(lambda g: g),
        "build+is_molecular": built(is_molecular),
        "build+find_sil": built(find_sil),
        "build+classify": built(lambda g: classify(gp.uniform(g, gp.z2()))),
    }
    results = {}
    for family, edges_of in FAMILIES.items():
        rows = results[family] = {}
        for fname, fn in functions.items():
            row = rows[fname] = {}
            over = False
            for n in SIZES:
                if over:
                    row[str(n)] = None
                    continue
                names = tuple(f"v{i}" for i in range(n))
                pairs = [(names[a], names[b]) for a, b in edges_of(n)]
                text = graph_file(names, pairs)
                took = best_time(lambda: fn(names, pairs, text))
                row[str(n)] = round(took, 6)
                over = took > BUDGET_S
                print(f"{family:>20}  {fname:<18} n={n:<4} {took * 1e3:11.2f} ms", flush=True)
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Time graph-file parsing, and graph construction alone and "
                    "followed by is_molecular, find_sil or classify, on growing graphs.")
    parser.add_argument("root", type=Path, help="source checkout whose src/ holds gpkit")
    parser.add_argument("--label", required=True, help="key for this run, e.g. parent or change")
    args = parser.parse_args(argv)
    src = (args.root / "src").resolve()
    if not (src / "gpkit").is_dir():
        parser.error(f"no gpkit package under {src}")
    sys.path.insert(0, str(src))
    import gpkit

    record = json.loads(OUT.read_text()) if OUT.exists() else {}
    record.update({
        "harness": "scripts/bench_graphs.py",
        "unit": "seconds, best of up to 5 calls; null = skipped after a call over the budget",
        "sizes": list(SIZES),
    })
    runs = record.setdefault("runs", {})
    runs[args.label] = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "budget_s": BUDGET_S,
        "results": measure(gpkit),
    }
    OUT.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
