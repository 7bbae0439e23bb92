"""Spans around gpkit's public functions, recorded from the benchmark's side.

`Tracer.install` replaces each function listed in LAYERS wherever it is bound
in a `gpkit.*` module namespace, so calls between gpkit modules are seen as
well as calls from the benchmark.  Spans (name, start, end, parent span, op
id) are kept in flat arrays and turned into per-layer metrics, and written
out, when the run ends.  A span's self time is its duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = {
    "cli": ("main", "parse_graph_file", "parse_table_file", "parse_word_literal"),
    "groups": ("validate", "automorphisms", "minimal_generating_set"),
    "graphs": ("girth", "find_sil", "join_pairs_partition", "join_decompose", "induced"),
    "classify": ("classify",),
    "words": ("normal_form", "multiply", "invert", "retract"),
    "tree": ("wpd_certificate", "act_auto", "malnormality_check", "ball_elements",
             "translation_data", "tree_distance"),
}

# Per-layer metrics in output order, with their units.
METRICS = (
    ("cli.main.calls", "count"), ("cli.self_s", "s"),
    ("cli.parse_graph_file.self_s", "s"), ("cli.parse_word_literal.self_s", "s"),
    ("groups.validate.calls", "count"), ("groups.validate.self_s", "s"),
    ("groups.validate.triples", "count"),
    ("groups.automorphisms.calls", "count"), ("groups.automorphisms.self_s", "s"),
    ("groups.automorphisms.found", "count"), ("groups.minimal_generating_set.self_s", "s"),
    ("graphs.girth.calls", "count"), ("graphs.girth.self_s", "s"),
    ("graphs.find_sil.calls", "count"), ("graphs.find_sil.self_s", "s"),
    ("graphs.join_pairs_partition.calls", "count"),
    ("graphs.join_pairs_partition.self_s", "s"),
    ("graphs.join_decompose.calls", "count"), ("graphs.induced.calls", "count"),
    ("classify.classify.calls", "count"), ("classify.self_s", "s"),
    ("classify.join_decompose_per_report", "ratio"), ("classify.induced_per_report", "ratio"),
    ("words.normal_form.calls", "count"), ("words.normal_form.self_s", "s"),
    ("words.syllables_in", "count"), ("words.syllables_out", "count"),
    ("words.reduction_ratio", "ratio"),
    ("words.multiply.calls", "count"), ("words.invert.calls", "count"),
    ("words.retract.calls", "count"),
    ("tree.wpd_certificate.calls", "count"), ("tree.wpd_certificate.self_s", "s"),
    ("tree.pairs_checked", "count"), ("tree.act_auto.calls", "count"),
    ("tree.malnormality_check.calls", "count"), ("tree.malnormality_check.self_s", "s"),
    ("tree.ball_elements", "count"), ("tree.translation_data.self_s", "s"),
    ("tree.tree_distance.calls", "count"),
    ("trace.overhead_ratio", "ratio"),
)


def _validate_triples(counts, args):
    counts["groups.validate.triples"] += len(args[0]) ** 3


def _normal_form_syllables(counts, args, result):
    counts["words.syllables_in"] += len(args[0])
    counts["words.syllables_out"] += len(result)


def _automorphisms_found(counts, args, result):
    counts["groups.automorphisms.found"] += len(result)


def _pairs_checked(counts, args, result):
    counts["tree.pairs_checked"] += result.stabilizer_pairs_checked


def _ball_size(counts, args, result):
    counts["tree.ball_elements"] += len(result)


# Work counters read off a call's arguments (before it runs, so calls that
# raise are counted too) or off its result.
_BEFORE = {"groups.validate": _validate_triples}
_AFTER = {
    "words.normal_form": _normal_form_syllables,
    "groups.automorphisms": _automorphisms_found,
    "tree.wpd_certificate": _pairs_checked,
    "tree.ball_elements": _ball_size,
}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = -1
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts = defaultdict(int)
        self._patched = []

    def install(self):
        """Wrap every LAYERS function in every loaded gpkit module."""
        targets = {}
        for layer, fnames in LAYERS.items():
            mod = sys.modules[f"gpkit.{layer}"]
            for fname in fnames:
                fn = getattr(mod, fname)
                targets[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "gpkit" and not modname.startswith("gpkit."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = targets.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, val in self._patched:
            setattr(mod, attr, val)
        self._patched.clear()

    def _wrap(self, qualname, fn):
        nid = len(self.names)
        self.names.append(qualname)
        before = _BEFORE.get(qualname)
        after = _AFTER.get(qualname)
        name, parent, op_of, start, end, stack = (
            self.name, self.parent, self.op_of, self.start, self.end, self.stack)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if qualname == "words.normal_form" and not hasattr(args[0], "__len__"):
                args = (list(args[0]),) + args[1:]
            if before is not None:
                before(counts, args)
            i = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_of.append(self.op)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(counts, args, result)
            return result

        return traced

    def metrics(self, overhead_ratio):
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i in range(n):
            qual = self.names[self.name[i]]
            calls[qual] += 1
            self_s[qual] += self.end[i] - self.start[i] - child[i]
        nid = {q: k for k, q in enumerate(self.names)}
        reports = calls["classify.classify"]
        inside = {"graphs.join_decompose": 0, "graphs.induced": 0}
        for i in range(n):
            qual = self.names[self.name[i]]
            if qual in inside and self._has_ancestor(i, nid["classify.classify"]):
                inside[qual] += 1
        values = dict(self.counts)
        for qual in calls.keys() | set(nid):
            values[f"{qual}.calls"] = calls[qual]
            values[f"{qual}.self_s"] = self_s[qual]
        for layer in ("cli", "classify"):
            values[f"{layer}.self_s"] = sum(
                s for q, s in self_s.items() if q.startswith(layer + "."))
        values["classify.join_decompose_per_report"] = (
            inside["graphs.join_decompose"] / reports if reports else 0.0)
        values["classify.induced_per_report"] = (
            inside["graphs.induced"] / reports if reports else 0.0)
        syl_in = values.get("words.syllables_in", 0)
        values["words.reduction_ratio"] = (
            values.get("words.syllables_out", 0) / syl_in if syl_in else 0.0)
        values["trace.overhead_ratio"] = overhead_ratio
        return {m: {"value": values.get(m, 0), "unit": unit} for m, unit in METRICS}

    def _has_ancestor(self, i, nid):
        p = self.parent[i]
        while p >= 0:
            if self.name[p] == nid:
                return True
            p = self.parent[p]
        return False

    def write(self, path):
        """Spans as gzipped CSV, times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span,name,start_s,end_s,parent,op\n")
            for i in range(len(self.name)):
                f.write(f"{i},{self.names[self.name[i]]},{self.start[i] - t0:.7f},"
                        f"{self.end[i] - t0:.7f},{self.parent[i]},{self.op_of[i]}\n")
