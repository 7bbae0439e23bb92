"""gpkit benchmark runner: one workload per process, one client in a closed loop.

    python3 bench/run.py --workload graph-report --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: gpkit is imported from `src/`, and
the tree BFS oracle from `tests/helpers.py`.  Inputs are generated from the
seed into `.bench_out/` and removed afterwards; gpkit only sees the
generated files and words.

A pass is one seeded draw of the workload's fixed op mix.  A run times the
same passes in SWEEPS sweeps, each op on its own (see _timed_run).  Every
run of an op is checked after the clock stops: the first against the
workload's oracle, later ones for equality with that checked result.  With
`--trace 1` one pass runs twice untraced (a warm-up, then timed) and once
with spans recorded around gpkit's public functions (see spans.py), and
per-layer metrics are reported instead.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}, where attempted and failed count runs of ops, so
error_rate is failed / attempted.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from common import CheckFailed  # noqa: E402

WORKLOADS = {
    "graph-report": ("graph_report", "GraphReport"),
    "word-algebra": ("word_algebra", "WordAlgebra"),
    "tree-certify": ("tree_certify", "TreeCertify"),
}
GPKIT_MODULES = ("cli", "classify", "graphs", "groups", "labeled", "tree", "words")
SETUP_REPEATS = 11
SWEEPS = 4
# With 100 samples, 10 lie beyond p90.
MIN_OPS = 100
# Stop starting new sweeps after this much wall time, so a run ends well
# within three minutes even if the code under test gets much slower.
WALL_LIMIT_S = 120.0
OUT_DIR = ".bench_out"


def _fresh_setup(wl):
    """Import gpkit afresh and build the workload's contexts; timed."""
    for name in [m for m in sys.modules if m == "gpkit" or m.startswith("gpkit.")]:
        del sys.modules[name]
    gc.collect()
    t0 = perf_counter()
    gp = SimpleNamespace(**{m: importlib.import_module(f"gpkit.{m}") for m in GPKIT_MODULES})
    state = wl.setup(gp)
    return perf_counter() - t0, gp, state


def _run_pass(ops, first_id, tracer=None, expected=None):
    """Run ops in order.  Returns (kind, key, seconds, error or None) records
    and digests of the results.  A result is checked by the op's own check,
    or, when `expected` holds the digest of the op's checked result from an
    earlier run, by equality with it."""
    records = []
    results = []
    for k, op in enumerate(ops):
        err = result = None
        if tracer is not None:
            tracer.op = first_id + k
            tracer.enabled = True
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception:  # any uncaught exception fails the op; keep going
            err = traceback.format_exc(limit=3)
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        if err is None:
            try:
                if expected is None:
                    op.check(result)
                elif _digest(result) != expected[k]:
                    raise CheckFailed("result differs from the checked result of its first run")
            except CheckFailed as exc:
                err = f"wrong result: {exc}"
            except Exception:
                err = "output check raised:\n" + traceback.format_exc(limit=3)
        records.append((op.kind, op.key, dt, err))
        results.append(_digest(result))
    return records, results


def _digest(result):
    return hashlib.blake2b(repr(result).encode(), digest_size=16).digest()


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _summary(records, best):
    """Per size key: op count, median and max of the ops' best latencies in ms."""
    groups = {}
    for (kind, key, _, _), dt in zip(records, best):
        groups.setdefault((kind, key), []).append(dt * 1e3)
    lines = []
    for (kind, key), ms in sorted(groups.items()):
        lines.append(f"  {kind:<12} {key:<34} n={len(ms):<4} "
                     f"p50={statistics.median(ms):10.3f} ms  max={max(ms):10.3f} ms")
    return lines


def _report_failures(records):
    failures = [(kind, key, err) for kind, key, _, err in records if err is not None]
    for kind, key, err in failures[:5]:
        print(f"FAILED {kind} [{key}]: {err}", file=sys.stderr)
    return len(failures)


def _timed_run(wl, gp, state, seconds, setup_times):
    """Time SWEEPS sweeps over the same passes; an op's latency is its fastest
    of its SWEEPS runs, which filters out the slow spells of a shared machine.

    The number of passes depends on the workload and `seconds` only, not on
    how fast the code runs: a sweep is sized to take about seconds / SWEEPS
    on the initial code (wl.pass_seconds per pass) and holds at least MIN_OPS
    ops."""
    passes = [wl.ops(0, gp, state)]
    count = max(math.ceil(MIN_OPS / len(passes[0])), round(seconds / (SWEEPS * wl.pass_seconds)))
    passes += [wl.ops(r, gp, state) for r in range(1, count)]
    wall0 = perf_counter()
    records = []
    expected = [None] * count
    best = None
    sweep_s = []
    while len(sweep_s) < SWEEPS and perf_counter() - wall0 < WALL_LIMIT_S:
        recs = []
        for r, ops in enumerate(passes):
            rs, digests = _run_pass(ops, len(records) + len(recs), expected=expected[r])
            expected[r] = digests
            recs += rs
        times = [dt for _, _, dt, _ in recs]
        best = times if best is None else [min(b, dt) for b, dt in zip(best, times)]
        sweep_s.append(sum(times))
        records += recs
    timed = sum(sweep_s)
    failed = _report_failures(records)
    lat = sorted(dt * 1e3 for dt in best)
    p90 = statistics.quantiles(lat, n=10)[8]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(best) / sum(best), "1/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_p90_ms": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"{count} passes x {len(sweep_s)} sweeps, {len(records)} ops in {timed:.3f} s timed "
          f"(sweeps: {' '.join(f'{t:.3f}' for t in sweep_s)} s); best latency by kind and size key:")
    print("\n".join(_summary(records, best)))
    print(f"setup_s median of {len(setup_times)} set-ups: "
          + " ".join(f"{t:.4f}" for t in setup_times))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"samples = {len(lat)} ops, {sum(1 for x in lat if x > p90)} beyond p90")
    print(f"error_rate = {failed / len(records):.6g} ({failed} of {len(records)} runs of ops failed)")
    return records, failed, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _traced_run(wl, gp, state, out_dir, seed):
    from spans import Tracer

    ops = wl.ops(0, gp, state)
    warm, results = _run_pass(ops, 0)
    plain, _ = _run_pass(ops, len(warm), expected=results)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = _run_pass(ops, len(warm) + len(plain), tracer, expected=results)
    finally:
        tracer.uninstall()
    records = warm + plain + traced
    failed = _report_failures(records)
    t_plain = sum(dt for _, _, dt, _ in plain)
    t_traced = sum(dt for _, _, dt, _ in traced)
    metrics = tracer.metrics(t_traced / t_plain)
    spans = out_dir / f"spans-{wl.name}-seed{seed}.csv.gz"
    tracer.write(spans)
    print(f"pass of {len(ops)} ops: untraced {t_plain:.3f} s, traced {t_traced:.3f} s; "
          f"{len(tracer.name)} spans written to {spans.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"error_rate = {failed / len(records):.6g} ({failed} of {len(records)} runs of ops failed)")
    return records, failed, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    for need in ("src/gpkit/__init__.py", "tests/helpers.py"):
        if not (ROOT / need).is_file():
            print(f"{need} not found under {ROOT}; run from a gpkit checkout", file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    out_dir = ROOT / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        modname, clsname = WORKLOADS[args.workload]
        wl = getattr(importlib.import_module(modname), clsname)(args.seed, work)
        setup_times = []
        gp = state = None
        for _ in range(SETUP_REPEATS):
            gp = state = None
            dt, gp, state = _fresh_setup(wl)
            setup_times.append(dt)
        if not gp.cli.__file__.startswith(str(ROOT / "src")):
            print(f"gpkit imported from {gp.cli.__file__}, not from this checkout",
                  file=sys.stderr)
            return 2
        gp.helpers = importlib.import_module("tests.helpers")
        env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "python": platform.python_version(),
               "commit": _commit(), "nproc": len(os.sched_getaffinity(0))}
        print("env " + json.dumps(env))
        if args.trace:
            records, failed, metrics = _traced_run(wl, gp, state, out_dir, args.seed)
        else:
            records, failed, metrics = _timed_run(wl, gp, state, args.seconds, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
