import itertools
import json
import random
from pathlib import Path

import pytest

import gpkit.classify as cls
import gpkit.cli as cli
import gpkit.groups as groups
import gpkit.tree as tree
from gpkit import graph, uniform, z2
from gpkit.cli import (
    CommandRequest,
    DuplicateVertex,
    ParseError,
    SelfLoop,
    UnknownVertexInEdge,
    format_word,
    main,
    parse_graph_file,
    parse_table_file,
    parse_word_literal,
    report_to_dict,
    run,
)
from gpkit.groups import NotAGroup
from gpkit.words import BadSyllable

from .helpers import d4_table, random_graph, serialize_graph_file

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_parse_graph_file_basic():
    ctx = parse_graph_file("vertex a Z2\nvertex b Z/3\nedge a b\n")
    assert ctx.graph.vertices == ("a", "b")
    assert ctx.graph.has_edge("a", "b")
    assert ctx.label("a") == z2()
    assert ctx.label("b").kind == "cyclic"
    assert ctx.label("b").order == 3


def test_parse_graph_file_errors():
    with pytest.raises(SelfLoop):
        parse_graph_file("vertex a Z2\nedge a a\n")
    with pytest.raises(DuplicateVertex):
        parse_graph_file("vertex a Z2\nvertex a Z2\n")
    with pytest.raises(UnknownVertexInEdge):
        parse_graph_file("vertex a Z2\nedge a b\n")
    with pytest.raises(ParseError) as err:
        parse_graph_file("")
    assert str(err.value) == "line 0: no vertices declared"
    with pytest.raises(ParseError) as err:
        parse_graph_file("vertex a Z2\nvertex b Z2\nedge a b\nedge b a\n")
    assert str(err.value) == "line 4: duplicate edge 'b'-'a'"
    with pytest.raises(ParseError) as err:
        parse_graph_file("vertex a Z2\nvertex b Z2\nedge a b\nedge a b\n")
    assert str(err.value) == "line 4: duplicate edge 'a'-'b'"
    with pytest.raises(ParseError):
        parse_graph_file("vertex a Z/1\n")
    with pytest.raises(ParseError):
        parse_graph_file("vertex a Qx\n")
    err = None
    try:
        parse_graph_file("vertex a Z2\nbogus\n")
    except ParseError as exc:
        err = exc
    assert err.line == 2


def test_parse_table_descriptor():
    ctx = parse_graph_file("vertex a table:s3.tbl\n", base_dir=FIXTURES)
    assert ctx.label("a").kind == "table"
    assert ctx.label("a").order == 6


def test_parse_opaque_descriptor():
    ctx = parse_graph_file("vertex a opaque{T=yes,SQ=no,QH=unknown,BG=yes}\n")
    flags = ctx.label("a").flags
    assert flags.kazhdan_t == "yes"
    assert flags.many_quasimorphisms == "unknown"
    with pytest.raises(ParseError):
        parse_graph_file("vertex a opaque{XX=yes}\n")
    with pytest.raises(ParseError):
        parse_graph_file("vertex a opaque{T=perhaps}\n")


def test_parse_table_file_errors():
    with pytest.raises(NotAGroup):
        parse_table_file("2\n0 1\n1 1\n")
    with pytest.raises(NotAGroup):
        parse_table_file("3\n0 1\n1 0\n")
    t = parse_table_file("# comment\n2\n0 1\n1 0\n")
    assert t.order == 2


def test_serialize_round_trip(tmp_path):
    text = (FIXTURES / "k2s3.graph").read_text()
    ctx = parse_graph_file(text, base_dir=FIXTURES)
    canonical = serialize_graph_file(ctx)
    (tmp_path / "s3.tbl").write_text((FIXTURES / "s3.tbl").read_text())
    again = parse_graph_file(canonical, base_dir=tmp_path)
    assert again == ctx
    assert serialize_graph_file(again) == canonical


def test_serialize_round_trip_all_descriptor_kinds(tmp_path):
    text = (
        "vertex a Z2\nvertex b Z/5\nvertex c Z\n"
        "vertex d opaque{T=no,SQ=unknown,QH=yes,BG=no}\n"
        "edge a b\nedge c d\n"
    )
    ctx = parse_graph_file(text, base_dir=tmp_path)
    assert parse_graph_file(serialize_graph_file(ctx), base_dir=tmp_path) == ctx


def test_file_route_matches_graph_builder():
    # graphs built by graph() and by parse_graph_file compare by their masks,
    # so this checks the two builders against each other
    rng = random.Random(5)
    cases = [graph("abcd"), graph("abcd", itertools.combinations("abcd", 2))]
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 12), p=rng.choice((0.2, 0.5, 0.8)))
        order = list(g.vertices)
        rng.shuffle(order)
        cases.append(graph(order, g.edges))
    for g in cases:
        ctx = uniform(g, z2())
        assert parse_graph_file(serialize_graph_file(ctx)) == ctx


def test_word_literals():
    ctx = parse_graph_file("vertex a Z2\nvertex b Z/3\nvertex t Z\n")
    w = parse_word_literal("a[1]*b[2]*t^-3", ctx)
    assert format_word(w, ctx) == "a[1]*b[2]*t^-3"
    assert parse_word_literal("1", ctx).is_identity
    assert format_word(parse_word_literal("a[1]*a[1]", ctx), ctx) == "1"
    with pytest.raises(BadSyllable):
        parse_word_literal("t[1]", ctx)
    with pytest.raises(BadSyllable):
        parse_word_literal("a^2", ctx)
    with pytest.raises(BadSyllable):
        parse_word_literal("wat", ctx)


def test_run_classify_json():
    status, out = run(CommandRequest("classify", str(FIXTURES / "p4.graph"), as_json=True))
    assert status == 0
    report = json.loads(out)
    assert report["verdicts"]["sqUniversal"] == "yes"
    assert report["verdicts"]["propertyT"] == "no"
    assert report["join"]["cone"] == []
    # documented schema keys exactly
    assert set(report) == {"join", "verdicts", "propositionE", "reasons"}


def test_report_json_round_trip():
    ctx = parse_graph_file((FIXTURES / "c4.graph").read_text(), base_dir=FIXTURES)
    d = report_to_dict(cls.classify(ctx))
    assert json.loads(json.dumps(d)) == d


def test_run_word():
    status, out = run(CommandRequest(
        "word", str(FIXTURES / "p3.graph"), literal="a[1]*b[1]*c[1]*b[1]",
    ))
    assert status == 0
    assert out.strip() == "a[1]*c[1]"


def test_run_tree_wpd():
    status, out = run(CommandRequest(
        "tree", str(FIXTURES / "fp23.graph"), u="a", v="b", wpd=True, radius=4,
        as_json=True,
    ))
    assert status == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["survivors"] == 1
    assert payload["stabilizerPairsChecked"] == 2
    assert payload["malnormalAtRadius"] == {"radius": 4, "holds": True}
    assert len(payload["axisVertices"]) == 4


def test_run_tree_axis():
    status, out = run(CommandRequest(
        "tree", str(FIXTURES / "p3.graph"), u="a", v="c",
        axis="a[1]*b[1]*c[1]", as_json=True,
    ))
    assert status == 0
    payload = json.loads(out)
    assert payload["element"] == "a[1]*c[1]"
    assert payload["translationLength"] == 2
    assert [v["side"] for v in payload["segment"]] == ["a", "c", "a"]


def test_run_tree_rejects_adjacent_pair():
    status, out = run(CommandRequest(
        "tree", str(FIXTURES / "p3.graph"), u="a", v="b", wpd=True,
    ))
    assert status == 1
    assert "adjacent" in out


def test_run_graph_info():
    status, out = run(CommandRequest("graph-info", str(FIXTURES / "p4.graph"), as_json=True))
    assert status == 0
    info = json.loads(out)
    assert info["join"] == {"cone": [], "core": ["a", "b", "c", "d"]}
    assert info["sil"] is None
    assert info["molecular"] is False
    assert info["complementDegrees"] == {"a": 2, "b": 1, "c": 1, "d": 2}
    assert info["joinOfCliqueAndPairs"] is False


def test_run_graph_info_sil():
    status, out = run(CommandRequest("graph-info", str(FIXTURES / "fp23.graph"), as_json=True))
    info = json.loads(out)
    assert info["sil"] is None  # only two vertices, no third component
    three = "vertex u Z2\nvertex v Z2\nvertex w Z2\n"
    ctx = parse_graph_file(three)
    from gpkit.graphs import find_sil

    assert find_sil(ctx.graph).component == frozenset({"w"})


def test_run_custom_property():
    status, out = run(CommandRequest(
        "classify", str(FIXTURES / "c4.graph"),
        vast_property="involves_all_finite_groups", assume_conditions=True,
        as_json=True,
    ))
    assert status == 0
    payload = json.loads(out)
    assert payload["verdict"] == "no"
    assert any("assumed" in r for r in payload["reasons"])
    status, _ = run(CommandRequest(
        "classify", str(FIXTURES / "c4.graph"),
        vast_property="involves_all_finite_groups",
    ))
    assert status == 1


def test_run_errors_are_reported():
    status, out = run(CommandRequest("classify", "does-not-exist.graph"))
    assert status == 1
    status, out = run(CommandRequest("word", str(FIXTURES / "p3.graph"), literal="a[7]"))
    assert status == 1
    assert "BadSyllable" in out
    status, out = run(CommandRequest("nonsense", str(FIXTURES / "p3.graph")))
    assert status == 2


def test_main_entry(capsys):
    assert main(["classify", str(FIXTURES / "c4.graph")]) == 0
    captured = capsys.readouterr()
    assert "boundedlyGenerated: yes" in captured.out
    assert main(["word", str(FIXTURES / "p3.graph"), "--compute", "zz"]) == 1
    captured = capsys.readouterr()
    assert "BadSyllable" in captured.err


def test_exit_status_zero_iff_no_error():
    good = run(CommandRequest("graph-info", str(FIXTURES / "c5.graph")))
    assert good[0] == 0
    bad = run(CommandRequest("graph-info", str(FIXTURES / "nope.graph")))
    assert bad[0] == 1


@pytest.mark.parametrize("flags", [
    ["--radius", "-3"],
    ["--radius", "two"],
    ["--gens-a", "x"],
    ["--gens-b", "1,y"],
    ["--radius", "0"],
])
def test_bad_tree_flags_are_usage_errors(flags, capsys):
    """Rejected by argparse: exit status 2 and one error line, no traceback."""
    with pytest.raises(SystemExit) as exc:
        main(["tree", str(FIXTURES / "fp23.graph"), "-u", "a", "-v", "b", "--wpd", *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("gpkit tree: error: argument")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, error", [
    (["tree", "p3.graph", "-u", "a", "-v", "a", "--wpd"], "SameVertex"),
    (["tree", "p3.graph", "-u", "a", "-v", "zz", "--wpd"], "BadSyllable"),
    (["tree", "p3.graph", "-u", "a", "-v", "b", "--wpd"], "VerticesAdjacent"),
    (["word", "mixed.graph", "--compute", "c[1]"], "GpkitError"),
    (["tree", "mixed.graph", "-u", "a", "-v", "c", "--wpd"], "GpkitError"),
    (["tree", "fp23.graph", "-u", "a", "-v", "b", "--wpd", "--gens-a", "9"], "BadSyllable"),
    (["classify", "c4.graph", "--property", "foo"], "GpkitError"),
])
def test_input_errors_exit_one_with_one_line(argv, error, capsys):
    cmd, path, *flags = argv
    assert main([cmd, str(FIXTURES / path), *flags]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"{error}: ")


@pytest.mark.parametrize("u, kind", [("a", "opaque"), ("b", "Z")])
def test_wpd_names_the_kind_of_a_factor_without_a_finite_table(u, kind, capsys):
    assert main(["tree", str(FIXTURES / "mixed.graph"), "-u", u, "-v", "c", "--wpd"]) == 1
    assert capsys.readouterr() == ("", f"GpkitError: descriptor kind {kind!r} has no finite table\n")


def test_internal_value_error_is_not_a_user_error(monkeypatch):
    def broken(request):
        raise ValueError("a bug, not bad input")

    monkeypatch.setattr(cli, "_run_classify", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["classify", str(FIXTURES / "c4.graph")])


def test_wpd_rejects_large_factor_before_building_tables(tmp_path, monkeypatch, capsys):
    def no_tables(table):
        raise AssertionError(f"table of order {len(table.product)} built")

    def no_search(table):
        raise AssertionError("generator search started")

    monkeypatch.setattr(groups.MultTable, "__post_init__", no_tables)
    for module in (groups, tree):
        monkeypatch.setattr(module, "minimal_generating_set", no_search)
    path = tmp_path / "big.graph"
    path.write_text("vertex a Z/40000\nvertex b Z2\n")
    assert main(["tree", str(path), "-u", "a", "-v", "b", "--wpd"]) == 1
    err = capsys.readouterr().err
    assert err == "OrderTooLarge: table order 40000 exceeds bound 12\n"


def test_main_twice_in_one_process(capsys):
    """The parser is built once; no option carries over to the next call."""
    argv = ["tree", str(FIXTURES / "fp23.graph"), "-u", "a", "-v", "b", "--wpd"]
    assert main([*argv, "--radius", "2"]) == 0
    assert capsys.readouterr().out.endswith("malnormal within radius 2: True\n")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--radius", "x"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith("malnormal within radius 6: True\n")


def test_scan_past_the_work_bound_fails_before_scanning(tmp_path, monkeypatch, capsys):
    def no_scan(*args):
        raise AssertionError("the scan started")

    monkeypatch.setattr(tree, "_ball", no_scan)
    path = tmp_path / "z12.graph"
    path.write_text("vertex a Z/12\nvertex b Z/12\n")
    assert main(["tree", str(path), "-u", "a", "-v", "b", "--wpd"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("ScanTooLarge: malnormality scan at radius 6 needs ")
    assert err.endswith(f"bound of {tree.MAX_SCAN_WORK:,}; the largest radius within it is 4\n")


def test_opaque_vertex_blocks_only_words_that_touch_it(tmp_path, capsys):
    assert main(["word", str(FIXTURES / "mixed.graph"), "--compute", "a[1]*b^2"]) == 0
    assert capsys.readouterr().out == "a[1]*b^2\n"
    path = tmp_path / "off.graph"
    path.write_text("vertex a Z2\nvertex b Z/3\nvertex c opaque{T=yes}\nedge a c\n")
    assert main(["tree", str(path), "-u", "a", "-v", "b", "--axis", "a[1]*b[1]"]) == 0
    assert capsys.readouterr().out == (
        "element: a[1]*b[1]\ntranslation length: 2\nsegment: (1 | a) (a[1] | b) (a[1]*b[1] | a)\n")


def _table_text(table) -> str:
    return f"{table.order}\n" + "".join(" ".join(map(str, r)) + "\n" for r in table.product)


def test_each_table_file_is_validated_once_per_graph_file(tmp_path, monkeypatch):
    d4 = d4_table()
    (tmp_path / "s3.tbl").write_text((FIXTURES / "s3.tbl").read_text())
    (tmp_path / "d4.tbl").write_text(_table_text(d4))
    lines = [f"vertex s{i} table:s3.tbl" for i in range(12)] + ["vertex d table:d4.tbl"]
    text = "\n".join(lines + ["edge s0 d"]) + "\n"
    s3 = groups.table_group(parse_table_file((FIXTURES / "s3.tbl").read_text()), source="s3.tbl")
    validated = []
    real = groups.validate
    monkeypatch.setattr(groups, "validate", lambda rows: validated.append(len(rows)) or real(rows))
    ctx = parse_graph_file(text, base_dir=tmp_path)
    assert validated == [6, 8]  # once per distinct file, not 13 times, once per vertex
    assert [ctx.label(f"s{i}") for i in range(12)] == [s3] * 12
    assert ctx.label("d") == groups.table_group(d4, source="d4.tbl")
    assert ctx.label("d").source == "d4.tbl"
    # the shared descriptors last only for one parse
    parse_graph_file(text, base_dir=tmp_path)
    assert validated == [6, 8, 6, 8]


def test_order_one_table_file_exits_one_with_one_line(tmp_path, capsys):
    (tmp_path / "one.tbl").write_text("1\n0\n")
    path = tmp_path / "one.graph"
    path.write_text("vertex a Z2\nvertex b table:one.tbl\n")
    for cmd in ("classify", "graph-info"):
        assert main([cmd, str(path)]) == 1
        assert capsys.readouterr() == (
            "", "GpkitError: vertex 'b': a vertex group needs order >= 2, got 1\n")


def test_non_group_table_named_twice_fails_on_its_first_use(tmp_path, capsys):
    # a loop of order 5: a Latin square with identity and inverses, not associative
    (tmp_path / "loop.tbl").write_text(
        "5\n0 1 2 3 4\n1 0 3 4 2\n2 4 0 1 3\n3 2 4 0 1\n4 3 1 2 0\n")
    path = tmp_path / "loop.graph"
    path.write_text("vertex a table:loop.tbl\nvertex b Z2\nvertex c table:loop.tbl\nedge a b\n")
    for cmd in ("classify", "graph-info"):
        assert main([cmd, str(path)]) == 1
        assert capsys.readouterr() == ("", "NotAGroup: associativity fails on triple (1, 1, 2)\n")


def test_graph_file_not_utf8_exits_one_naming_file_and_byte(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_bytes(b"vertex a Z2\n\xff\xfe\n")
    assert main(["classify", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"ParseError: line 2: graph file {str(path)!r} is not UTF-8 at byte offset 12\n"


def test_table_file_not_utf8_exits_one_naming_file_and_byte(tmp_path, capsys):
    (tmp_path / "bad.tbl").write_bytes(b"\xff\xfe\n")
    path = tmp_path / "t.graph"
    path.write_text("vertex a Z2\nvertex b table:bad.tbl\n")
    assert main(["graph-info", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "ParseError: line 2: table file 'bad.tbl' is not UTF-8 at byte offset 0\n"


def test_repeated_opaque_key_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse_graph_file("vertex a Z2\nvertex b opaque{T=yes,SQ=no,T=no}\n")
    assert str(err.value) == "line 2: opaque flag key 'T' given twice"
