#!/usr/bin/env python3
"""Scaling record for one layer of gpkit, for two or more source checkouts in
one process.

    python3 scripts/bench_graphs.py [--layer graphs|words] parent=PARENT_ROOT change=.

Each LABEL=ROOT names a source checkout; its `src/gpkit` is loaded under the
module name `gpkit_<LABEL>` (every import inside the package is relative), so
the checkouts run side by side.  The labels take turns call by call, the
first label alternating too, so drift of the machine's speed hits every label
alike.  Each timing is the best of up to five calls per label.  The numbers
are written to `BENCH_<layer>.json` at the root of the checkout holding this
script, one run per label.

`--layer graphs` (the default): graph-file parsing, graph construction,
`is_molecular`, `find_sil`, `classify` and the `graph-info` command on growing
all-Z2 graphs, and `groups.validate` on permutation-group tables.  Graph
families: random graphs with round(p * n(n-1)/2) edges at p = 0.5 (seeded),
and rings with one chord spanning four steps (girth 5, so `is_molecular` runs
its whole girth test and there is no SIL).  n = 40 to 1280.  The "parse" row
times `cli.parse_graph_file` on the graph's file text (one `vertex` line per
vertex, one `edge` line per edge).  The "build" rows time
`graphs.graph(names, pairs)` from the same prepared names and vertex-name
pairs, alone or followed by one function, so adjacency is paid inside every
row however the graph stores it.  The "graph-info" row runs
`cli.main(["graph-info", FILE, "--json"])` on the same text written to a file,
with stdout captured.  Once a label's call takes longer than BUDGET_S, its
larger n of that row and family are recorded as null: at the parent commit of
`BENCH_graphs.json`, `find_sil` floods once per non-adjacent pair and passes
the budget at n=320.  The "validate" row times `groups.validate` on the
multiplication tables of S4 (order 24), Z2 x S4 (48), S5 (120) and PSL(2,7)
(168, acting on the projective line over F7), each built here from
permutation generators.

`--layer words`: the word engine on seeded random graphs G(n, p) with
round(p * n(n-1)/2) edges, every vertex labelled Z/3, at n = 8, 80, 640 and
p = 0.05, 0.5.  The "normal_form" rows time `words.normal_form` on a list of
L random syllables (uniform vertex, element 1 or 2), L = 100, 1,000, 10,000;
on 8 vertices most syllables merge.  The "L=400" rows time `multiply`,
`invert` and `retract` (onto the first non-adjacent pair) on words each
label's own `normal_form` made from 400 random syllables.  Every label's
result is checked against the first label's, syllable for syllable.
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

ROOT = Path(__file__).resolve().parent.parent
SIZES = (40, 80, 160, 320, 640, 1280)
BUDGET_S = 1.0
REPEATS = 5
SPEND_S = 2.0
DENSITY = 0.5
CHORD_SPAN = 4


def random_family(n, p=DENSITY):
    rng = random.Random(f"bench-graphs:{n}" if p == DENSITY else f"bench-graphs:{n}:{p}")
    pairs = list(itertools.combinations(range(n), 2))
    return sorted(rng.sample(pairs, round(p * len(pairs))))


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


WORD_SIZES = (8, 80, 640)
WORD_DENSITIES = (0.05, 0.5)
WORD_LENGTHS = (100, 1000, 10000)
OP_LENGTH = 400


def word_inputs(gp, n, p):
    """The Z/3-labelled G(n, p) and a seeded syllable list maker for it."""
    names = tuple(f"v{i}" for i in range(n))
    g = gp.graph(names, [(names[a], names[b]) for a, b in random_family(n, p)])
    ctx = gp.uniform(g, gp.cyclic(3))
    rng = random.Random(f"bench-words:{n}:{p}")

    def raw(length):
        return [gp.Syllable(names[rng.randrange(n)], rng.randrange(1, 3)) for _ in range(length)]
    pair = next((a, b) for a, b in itertools.combinations(names, 2) if not g.has_edge(a, b))
    return ctx, raw, pair


def timed_rows(gpkits, calls, row):
    """alternate() over `calls`, the results checked against the first label's."""
    got = {}
    took = alternate({label: (lambda label=label, call=call: got.__setitem__(label, call()))
                      for label, call in calls.items()})
    first = [(s.vertex, s.element) for s in got[next(iter(gpkits))].syllables]
    for label in gpkits:
        assert [(s.vertex, s.element) for s in got[label].syllables] == first, (label, row)
    return took


def measure_words(gpkits):
    results = {label: {"normal_form": {}, f"L={OP_LENGTH}": {}} for label in gpkits}
    for n in WORD_SIZES:
        for p in WORD_DENSITIES:
            key = f"n={n} p={p}"
            inputs = {label: word_inputs(gp, n, p) for label, gp in gpkits.items()}
            for label in gpkits:
                results[label]["normal_form"][key] = {}
            for length in WORD_LENGTHS:
                raws = {label: inputs[label][1](length) for label in gpkits}
                took = timed_rows(gpkits, {label: (lambda gp=gp, label=label: gp.normal_form(
                    raws[label], inputs[label][0])) for label, gp in gpkits.items()}, key)
                for label in gpkits:
                    results[label]["normal_form"][key][str(length)] = round(took[label], 6)
                print(f"{'normal_form':>12}  {key:<14} L={length:<6} " + "  ".join(
                    f"{label} {took[label] / length * 1e6:.2f} us/syllable" for label in gpkits),
                    flush=True)
            words = {}
            for label, gp in gpkits.items():
                ctx, raw, pair = inputs[label]
                words[label] = (gp.normal_form(raw(OP_LENGTH), ctx),
                                gp.normal_form(raw(OP_LENGTH), ctx), ctx, pair)
            ops = {
                "multiply": lambda gp, a, b, ctx, pair: gp.multiply(a, b, ctx),
                "invert": lambda gp, a, b, ctx, pair: gp.invert(a, ctx),
                "retract": lambda gp, a, b, ctx, pair: gp.retract(a, *pair, ctx),
            }
            for op, fn in ops.items():
                took = timed_rows(gpkits, {label: (lambda gp=gp, w=words[label], fn=fn: fn(gp, *w))
                                           for label, gp in gpkits.items()}, (op, key))
                for label in gpkits:
                    row = results[label][f"L={OP_LENGTH}"].setdefault(op, {})
                    row[key] = round(took[label], 6)
                print(f"{op:>12}  {key:<14} L={OP_LENGTH:<6} " + "  ".join(
                    f"{label} {took[label] * 1e3:.3f} ms" for label in gpkits), flush=True)
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Time one layer of gpkit (graphs: graph-file parsing, graph construction "
                    "alone and followed by is_molecular, find_sil or classify, graph-info, and "
                    "table validation; words: normal_form, multiply, invert and retract), "
                    "alternating source checkouts call by call in one process.")
    parser.add_argument("--layer", choices=("graphs", "words"), default="graphs")
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
    unit = ("seconds, best of up to 5 calls per label, labels alternating call by call "
            "in one process")
    if args.layer == "words":
        results = measure_words(gpkits)
        record = {"harness": "scripts/bench_graphs.py --layer words", "unit": unit,
                  "labels": "Z/3 on every vertex", "sizes": list(WORD_SIZES),
                  "densities": list(WORD_DENSITIES), "lengths": list(WORD_LENGTHS)}
        runs = {label: {"python": platform.python_version(), "cpus": os.cpu_count(),
                        "results": results[label]} for label in gpkits}
    else:
        with tempfile.TemporaryDirectory() as workdir:
            results = measure(gpkits, Path(workdir))
        record = {
            "harness": "scripts/bench_graphs.py",
            "unit": unit + "; null = skipped after a call over the budget",
            "sizes": list(SIZES),
            "validate_tables": {"24": "S4", "48": "Z2 x S4", "120": "S5", "168": "PSL(2,7)"},
        }
        runs = {label: {"python": platform.python_version(), "cpus": os.cpu_count(),
                        "budget_s": BUDGET_S, "results": results[label]} for label in gpkits}
    record["runs"] = runs
    (ROOT / f"BENCH_{args.layer}.json").write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
