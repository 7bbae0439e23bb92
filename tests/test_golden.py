"""Byte-for-byte CLI output on the fixtures, against files in tests/golden/.

Regenerate the files (only when an output change is intended) with

    PYTHONPATH=src python -m tests.test_golden
"""

import contextlib
import io
from pathlib import Path

import pytest

from gpkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"

_GRAPHS = ("c4", "c5", "fp23", "k2s3", "mixed", "p3", "p4")

CASES = {
    f"{cmd}_{name}{suffix}": [cmd, f"{name}.graph", *flags]
    for cmd in ("classify", "graph-info")
    for name in _GRAPHS
    for suffix, flags in ((".txt", []), (".json", ["--json"]))
}
CASES.update({
    "word_p3.txt": ["word", "p3.graph", "--compute", "a[1]*b[1]*c[1]*b[1]"],
    "tree_axis_p3.txt": ["tree", "p3.graph", "-u", "a", "-v", "c", "--axis", "a[1]*b[1]*c[1]"],
    "tree_wpd_fp23.txt": ["tree", "fp23.graph", "-u", "a", "-v", "b", "--wpd"],
    "tree_wpd_fp23_gens.txt": ["tree", "fp23.graph", "-u", "a", "-v", "b", "--wpd",
                               "--gens-a", "1", "--gens-b", "1,2", "--radius", "3"],
})


def _stdout(argv) -> str:
    cmd, path, *flags = argv
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main([cmd, str(FIXTURES / path), *flags]) == 0
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    assert _stdout(CASES[name]) == (GOLDEN / name).read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        (GOLDEN / name).write_text(_stdout(argv))
