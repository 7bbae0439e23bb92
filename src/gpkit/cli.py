"""File formats, word literals, and the gpkit command line.

Graph files are line oriented:

    vertex <id> <descriptor>
    edge <id> <id>

with descriptors Z2 | Z/<n> | Z | table:<path> | opaque{T=...,SQ=...,QH=...,BG=...}.
Table files hold the order on the first line and then the multiplication table,
identity at index 0.  Word literals multiply tokens left to right: `a[2]` is
element 2 of the finite group at vertex a, `t^-3` a power in an infinite cyclic
factor, and `1` the identity.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from . import classify as cls
from . import graphs, groups, tree, words
from .labeled import LabeledGraph


class ParseError(groups.GpkitError):
    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class DuplicateVertex(ParseError):
    pass


class UnknownVertexInEdge(ParseError):
    pass


class SelfLoop(ParseError):
    pass


_FLAG_KEYS = {"T": "kazhdan_t", "SQ": "sq_universal",
              "QH": "many_quasimorphisms", "BG": "boundedly_generated"}


def _parse_descriptor(tok: str, base_dir: Path, line_no: int,
                      tables: dict[str, groups.GroupDescriptor]) -> groups.GroupDescriptor:
    """One vertex descriptor; `tables` maps each table path read so far in this
    graph file to its descriptor, so each file is read and validated once."""
    if tok == "Z2":
        return groups.z2()
    if tok == "Z":
        return groups.infinite_cyclic()
    if tok.startswith("Z/"):
        try:
            n = int(tok[2:])
        except ValueError:
            raise ParseError(line_no, f"bad cyclic order in {tok!r}") from None
        if n < 2:
            raise ParseError(line_no, f"cyclic order must be >= 2, got {n}")
        return groups.cyclic(n)
    if tok.startswith("table:"):
        rel = tok[len("table:"):]
        if rel not in tables:
            try:
                text = _decode((base_dir / rel).read_bytes(), f"table file {rel!r}", line_no)
            except OSError as exc:
                raise ParseError(line_no, f"cannot read table file {rel!r}: {exc}") from None
            tables[rel] = groups.table_group(parse_table_file(text), source=rel)
        return tables[rel]
    m = re.fullmatch(r"opaque\{([^}]*)\}", tok)
    if m:
        values = {}
        for part in filter(None, m.group(1).split(",")):
            if "=" not in part:
                raise ParseError(line_no, f"bad opaque flag {part!r}")
            key, val = part.split("=", 1)
            if key not in _FLAG_KEYS:
                raise ParseError(line_no, f"unknown opaque flag key {key!r}")
            if _FLAG_KEYS[key] in values:
                raise ParseError(line_no, f"opaque flag key {key!r} given twice")
            if val not in groups.TRI_STATES:
                raise ParseError(line_no, f"opaque flag value {val!r} must be yes/no/unknown")
            values[_FLAG_KEYS[key]] = val
        return groups.opaque(groups.QuotientFlags(**values))
    raise ParseError(line_no, f"unknown descriptor {tok!r}")


def _decode(data: bytes, what: str, line: int | None = None) -> str:
    """data as UTF-8, else a ParseError at `line` (default: the bad byte's) naming `what`."""
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1 if line is None else line
        raise ParseError(line, f"{what} is not UTF-8 at byte offset {exc.start}") from None


def parse_table_file(text: str) -> groups.MultTable:
    """Read and fully validate a multiplication-table file."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise groups.NotAGroup("empty table file")
    try:
        n = int(lines[0])
    except ValueError:
        raise groups.NotAGroup(f"first line must be the order, got {lines[0]!r}") from None
    rows = []
    for ln in lines[1:]:
        try:
            rows.append([int(x) for x in ln.split()])
        except ValueError:
            raise groups.NotAGroup(f"non-integer table row {ln!r}") from None
    if len(rows) != n:
        raise groups.NotAGroup(f"expected {n} rows, got {len(rows)}")
    return groups.validate(rows)


def parse_graph_file(text: str, base_dir: str | Path = ".") -> LabeledGraph:
    """Parse a graph file into a LabeledGraph, vertices in declaration order."""
    base_dir = Path(base_dir)
    order: dict[str, int] = {}
    labels: list[groups.GroupDescriptor] = []
    masks: list[int] = []
    tables: dict[str, groups.GroupDescriptor] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) != 3:
                raise ParseError(line_no, "expected: vertex <id> <descriptor>")
            _, vid, desc_tok = parts
            if vid in order:
                raise DuplicateVertex(line_no, f"vertex {vid!r} declared twice")
            labels.append(_parse_descriptor(desc_tok, base_dir, line_no, tables))
            order[vid] = len(masks)
            masks.append(0)
        elif parts[0] == "edge":
            if len(parts) != 3:
                raise ParseError(line_no, "expected: edge <id> <id>")
            _, a, b = parts
            if a == b:
                raise SelfLoop(line_no, f"self-loop at vertex {a!r}")
            i, j = order.get(a), order.get(b)
            if i is None or j is None:
                x = a if i is None else b
                raise UnknownVertexInEdge(line_no, f"edge uses undeclared vertex {x!r}")
            if masks[i] >> j & 1:
                raise ParseError(line_no, f"duplicate edge {a!r}-{b!r}")
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        else:
            raise ParseError(line_no, f"unknown directive {parts[0]!r}")
    if not order:
        raise ParseError(0, "no vertices declared")
    g = graphs.SimplicialGraph(tuple(order), tuple(masks))
    return LabeledGraph(g, tuple(labels))


# ---------------------------------------------------------------------------
# Word literals

_TOKEN_INDEX = re.compile(r"^(?P<v>[^\s\[\]^*]+)\[(?P<e>\d+)\]$")
_TOKEN_POWER = re.compile(r"^(?P<v>[^\s\[\]^*]+)\^(?P<k>-?\d+)$")


def parse_word_literal(text: str, ctx: LabeledGraph) -> words.NormalWord:
    """Parse `a[1]*b[2]` / `t^-3` style literals into a normal-form word."""
    text = text.strip()
    if text in ("", "1"):
        return words.IDENTITY
    sylls = []
    for tok in (t.strip() for t in text.split("*")):
        if tok == "1":
            continue
        m = _TOKEN_INDEX.fullmatch(tok)
        if m:
            v = m.group("v")
            if v in ctx.graph and ctx.label(v).kind == "Z":
                raise words.BadSyllable(v, m.group("e"), "infinite cyclic vertices use v^k tokens")
            sylls.append(words.Syllable(v, int(m.group("e"))))
            continue
        m = _TOKEN_POWER.fullmatch(tok)
        if m:
            v = m.group("v")
            if v in ctx.graph and ctx.label(v).kind != "Z":
                raise words.BadSyllable(v, m.group("k"), "finite vertices use v[i] tokens")
            sylls.append(words.Syllable(v, int(m.group("k"))))
            continue
        raise words.BadSyllable(tok, None, "cannot parse token")
    return words.normal_form(sylls, ctx)


def format_word(w: words.NormalWord, ctx: LabeledGraph) -> str:
    return "*".join(f"{s.vertex}^{s.element}" if ctx.label(s.vertex).kind == "Z"
                    else f"{s.vertex}[{s.element}]" for s in w.syllables) or "1"


def _vertex_str(x: tree.TreeVertex, fp: tree.FreeProduct) -> str:
    return f"({format_word(x.rep, fp.ctx)} | {x.side})"


# ---------------------------------------------------------------------------
# Reports

def report_to_dict(report: cls.ClassificationReport) -> dict:
    named = [(name, verdict) for name, verdict in (
        ("propertyT", report.property_t), ("sqUniversal", report.sq_universal),
        ("manyQuasimorphisms", report.many_quasimorphisms),
        ("boundedlyGenerated", report.boundedly_generated),
        ("autPropertyT", report.aut_property_t),
        ("molecularPropertyT", report.molecular_property_t)) if verdict is not None]
    verdicts = {name: verdict.value for name, verdict in named}
    reasons = [f"{name}: {r}" for name, verdict in named for r in verdict.reasons]
    if report.racg_largeness is not None:
        verdicts["racgLarge"] = "yes" if report.racg_largeness.large else "no"
        if report.racg_largeness.decomposition is not None:
            parts = " + ".join(f"{kind}({','.join(block)})"
                               for kind, block in report.racg_largeness.decomposition)
            reasons.append(f"racgLarge: group decomposes as {parts}")
    equivalences = None
    if report.equivalences is not None:
        keys = ("i", "ii", "iii", "iv", "v", "vi")
        equivalences = {k: bool(val) for k, val in zip(keys, report.equivalences.entries)}
        equivalences["virtuallyAbelian"] = bool(report.equivalences.virtually_abelian)
    reasons.extend(f"note: {n}" for n in report.notes)
    return {
        "join": {"cone": list(report.join.cone), "core": list(report.join.core)},
        "verdicts": verdicts,
        "propositionE": equivalences,
        "reasons": reasons,
    }


def format_report_text(report_dict: dict) -> str:
    lines = []
    join = report_dict["join"]
    lines.append(f"join: cone={join['cone']} core={join['core']}")
    for key, val in report_dict["verdicts"].items():
        lines.append(f"{key}: {val}")
    if report_dict["propositionE"] is not None:
        entries = report_dict["propositionE"]
        shown = " ".join(f"{k}={entries[k]}" for k in ("i", "ii", "iii", "iv", "v", "vi"))
        lines.append(f"equivalences: {shown} (virtuallyAbelian={entries['virtuallyAbelian']})")
    lines.append("reasons:")
    lines.extend(f"  - {r}" for r in report_dict["reasons"])
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Command dispatch

@dataclass
class CommandRequest:
    """One gpkit invocation; the fields are the command-line options, each
    defaulted here and nowhere else."""

    subcommand: str
    path: str
    as_json: bool = False
    literal: str | None = None
    u: str | None = None
    v: str | None = None
    axis: str | None = None
    wpd: bool = False
    gens_a: tuple[int, ...] | None = None
    gens_b: tuple[int, ...] | None = None
    radius: int = 6
    vast_property: str | None = None
    assume_conditions: bool = False


def _load(request: CommandRequest) -> LabeledGraph:
    path = Path(request.path)
    text = _decode(path.read_bytes(), f"graph file {request.path!r}")
    return parse_graph_file(text, base_dir=path.parent)


def _run_classify(request: CommandRequest) -> str:
    ctx = _load(request)
    if request.vast_property:
        verdict = cls.classify_vastness(
            ctx, request.vast_property, assume_admissible=request.assume_conditions
        )
        reasons = list(verdict.reasons)
        if request.vast_property not in cls.ADMISSIBLE_PROPERTIES:
            reasons.append("note: closure conditions of the custom property assumed by the caller")
        payload = {
            "property": request.vast_property,
            "verdict": verdict.value,
            "reasons": reasons,
        }
        if request.as_json:
            return json.dumps(payload, indent=2) + "\n"
        return (f"{payload['property']}: {payload['verdict']}\n"
                + "\n".join(f"  - {r}" for r in payload["reasons"]) + "\n")
    report = cls.classify(ctx)
    d = report_to_dict(report)
    if request.as_json:
        return json.dumps(d, indent=2) + "\n"
    return format_report_text(d)


def _run_graph_info(request: CommandRequest) -> str:
    ctx = _load(request)
    g = ctx.graph
    jd = graphs.join_decompose(g)
    witness = graphs.find_sil(g)
    info = {
        "vertices": list(g.vertices),
        "join": {"cone": list(jd.cone), "core": list(jd.core)},
        "sil": None if witness is None else {
            "u": witness.u,
            "v": witness.v,
            "component": sorted(witness.component, key=g.index),
        },
        "molecular": graphs.is_molecular(g),
        "complementDegrees": graphs.complement_degrees(g),
        "joinOfCliqueAndPairs": graphs.matches_complete_join_pairs(g),
    }
    if request.as_json:
        return json.dumps(info, indent=2) + "\n"
    lines = [
        f"vertices: {info['vertices']}",
        f"join: cone={info['join']['cone']} core={info['join']['core']}",
        f"sil: {info['sil']}",
        f"molecular: {info['molecular']}",
        f"complement degrees: {info['complementDegrees']}",
        f"join of clique and pairs: {info['joinOfCliqueAndPairs']}",
    ]
    return "\n".join(lines) + "\n"


def _run_word(request: CommandRequest) -> str:
    ctx = _load(request)
    w = parse_word_literal(request.literal, ctx)
    out = format_word(w, ctx)
    if request.as_json:
        return json.dumps({"normalForm": out}, indent=2) + "\n"
    return out + "\n"


def _run_tree(request: CommandRequest) -> str:
    ctx = _load(request)
    fp = tree.free_product(ctx, request.u, request.v)
    if request.axis is not None:
        w = words.retract(parse_word_literal(request.axis, ctx), request.u, request.v, ctx)
        data = tree.translation_data(fp, w)
        payload = {
            "element": format_word(data.element, fp.ctx),
            "translationLength": data.translation_length,
            "segment": [
                {"side": x.side, "rep": format_word(x.rep, fp.ctx)} for x in data.segment
            ],
        }
        if request.as_json:
            return json.dumps(payload, indent=2) + "\n"
        seg = " ".join(_vertex_str(x, fp) for x in data.segment)
        return (f"element: {payload['element']}\n"
                f"translation length: {data.translation_length}\n"
                f"segment: {seg}\n")
    if request.wpd:
        cert = tree.wpd_certificate(fp, request.gens_a, request.gens_b)
        malnormal = all(tree.malnormality_check(fp, request.radius).holds)
        payload = {
            "element": format_word(cert.g, fp.ctx),
            "translationLength": cert.translation_length,
            "axisVertices": [
                {"side": x.side, "rep": format_word(x.rep, fp.ctx)}
                for x in cert.axis_vertices
            ],
            "stabilizerPairsChecked": cert.stabilizer_pairs_checked,
            "survivors": len(cert.survivors),
            "valid": cert.valid,
            "malnormalAtRadius": {"radius": request.radius, "holds": malnormal},
        }
        if request.as_json:
            return json.dumps(payload, indent=2) + "\n"
        vs = " ".join(_vertex_str(x, fp) for x in cert.axis_vertices)
        return (f"element: {payload['element']}\n"
                f"translation length: {cert.translation_length}\n"
                f"axis vertices: {vs}\n"
                f"automorphism pairs checked: {cert.stabilizer_pairs_checked}\n"
                f"survivors: {len(cert.survivors)}\n"
                f"valid: {cert.valid}\n"
                f"malnormal within radius {request.radius}: {malnormal}\n")
    raise groups.GpkitError("tree needs either --axis or --wpd")


def run(request: CommandRequest) -> tuple[int, str]:
    """Execute one request; returns (exit status, output or error text)."""
    handlers = {
        "classify": _run_classify,
        "graph-info": _run_graph_info,
        "word": _run_word,
        "tree": _run_tree,
    }
    handler = handlers.get(request.subcommand)
    if handler is None:
        return 2, f"unknown subcommand {request.subcommand!r}"
    try:
        return 0, handler(request)
    except OSError as exc:
        return 1, str(exc)
    except groups.GpkitError as exc:
        return 1, f"{type(exc).__name__}: {exc}"


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves no
    state on it, since absent options stay out of the namespace."""
    p = argparse.ArgumentParser(
        prog="gpkit",
        description="decision procedures and tree certificates for graph products",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        # options absent from argv stay out of the namespace, so the
        # CommandRequest defaults apply
        sp = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        sp.add_argument("path")
        sp.add_argument("--json", dest="as_json", action="store_true")
        return sp

    pc = command("classify", "evaluate every classification verdict")
    pc.add_argument("--property", dest="vast_property",
                    help="custom vastness property name (needs --assume-conditions-i-v)")
    pc.add_argument("--assume-conditions-i-v", dest="assume_conditions",
                    action="store_true",
                    help="vouch that the custom property satisfies the closure conditions")

    command("graph-info", "combinatorial profile of the graph")

    pw = command("word", "normal form of a word literal")
    pw.add_argument("--compute", required=True, dest="literal")

    pt = command("tree", "axis data or stabilizer certificate")
    pt.add_argument("-u", required=True)
    pt.add_argument("-v", required=True)
    group = pt.add_mutually_exclusive_group(required=True)
    group.add_argument("--axis", help="word literal whose axis to compute")
    group.add_argument("--wpd", action="store_true")
    pt.add_argument("--gens-a", type=_parse_gens, help="comma-separated element indices")
    pt.add_argument("--gens-b", type=_parse_gens, help="comma-separated element indices")
    pt.add_argument("--radius", type=_radius)
    return p


def _parse_gens(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")


def _radius(text: str) -> int:
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError(f"radius must be a positive integer, got {text!r}")
    return int(text)


def main(argv=None) -> int:
    status, output = run(CommandRequest(**vars(_parser().parse_args(argv))))
    if status == 0:
        sys.stdout.write(output)
    else:
        sys.stderr.write(output + ("\n" if not output.endswith("\n") else ""))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
