"""The benchmark's view of gpkit: every name `bench/` reads must resolve.

`bench/run.py` hands each workload a namespace `gp` of gpkit modules (and
`tests.helpers` as `gp.helpers`), and `bench/spans.py` wraps the functions in
its LAYERS table by name.  A name deleted from gpkit would break a benchmark
run or `--trace 1`; this test fails first.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _gp_module(node):
    """"m" when node is gp.m, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "gp":
        return node.attr
    return None


def _aliases(fn):
    """Names a function binds to gp modules, as in `cli = gp.cli` or
    `groups, words = gp.groups, gp.words`."""
    out = {}
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = [(target, node.value)]
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = zip(target.elts, node.value.elts)
            for t, v in pairs:
                if isinstance(t, ast.Name) and _gp_module(v):
                    out[t.id] = _gp_module(v)
    return out


def _names_read(tree):
    """(module, name) for each gp.<module>.<name>, and for each <alias>.<name>
    inside a function that binds the alias."""
    used = {(_gp_module(node.value), node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and _gp_module(node.value)}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            aliases = _aliases(fn)
            used |= {(aliases[node.value.id], node.attr) for node in ast.walk(fn)
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id in aliases}
    return used


def _layers():
    tree = ast.parse((BENCH / "spans.py").read_text())
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets))
    layers = ast.literal_eval(value)
    return {(layer, name) for layer, names in layers.items() for name in names}


def test_every_name_the_benchmark_reads_resolves():
    used = set()
    for path in sorted(BENCH.glob("*.py")):
        used |= _names_read(ast.parse(path.read_text()))
    layers = _layers()
    # the scan must see the aliased and the direct reads, and the span table
    assert {("groups", "validate"), ("tree", "tree_distance"),
            ("helpers", "bfs_distances")} <= used
    assert ("tree", "malnormality_check") in layers
    missing = []
    for module, name in sorted(used | layers):
        where = "tests.helpers" if module == "helpers" else f"gpkit.{module}"
        if not hasattr(importlib.import_module(where), name):
            missing.append(f"{where}.{name}")
    assert not missing, f"bench/ reads names gpkit no longer has: {missing}"
