"""Pieces shared by the workloads: the op record, CLI invocation, graph files."""

from __future__ import annotations

import contextlib
import io
import itertools
from dataclasses import dataclass
from typing import Any, Callable


class CheckFailed(Exception):
    """An op returned a wrong result or the wrong exit status."""


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


@dataclass
class Op:
    """One request.  `run` is timed; `check` gets its result afterwards,
    outside the timed region, and raises CheckFailed on a wrong answer.
    `key` is the size key (n and density, word length and factor orders,
    factor pair and radius) that scaling families are read from."""

    kind: str
    key: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class CliResult:
    status: int
    out: str
    err: str


def call_cli(cli, argv) -> CliResult:
    """Run `gpkit.cli.main(argv)` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            status = exc.code
    return CliResult(status, out.getvalue(), err.getvalue())


def random_edges(rng, n, p):
    """A uniform random graph with exactly round(p * n(n-1)/2) edges; fixing
    the edge count keeps the cost of graphs of one size and density close."""
    pairs = list(itertools.combinations(range(n), 2))
    return sorted(rng.sample(pairs, round(p * len(pairs))))


def ensure_non_edge(rng, n, edges):
    """Drop one edge if the graph is complete, so a non-adjacent pair exists."""
    if len(edges) == n * (n - 1) // 2:
        edges = list(edges)
        edges.pop(rng.randrange(len(edges)))
    return edges


def graph_text(names, labels, edges):
    lines = [f"vertex {v} {lab}" for v, lab in zip(names, labels)]
    lines += [f"edge {names[a]} {names[b]}" for a, b in edges]
    return "\n".join(lines) + "\n"


def vertex_names(n):
    return [f"v{i}" for i in range(n)]
