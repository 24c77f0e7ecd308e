"""Reading and writing the .pgr text format and its companion files.

A .pgr file carries one embedded graph per file, one declaration per
line, and may bundle a prescription:

    pgr 1
    vertex <id>
    edge <id> <u> <v> <+1|-1>
    rot <v> <dart> <dart> ...     # dart written <edge_id>.<0|1>
    face <edge_id>.<0|1>          # specified-face anchor, at most two
    tvertex <id>
    dvertex <id>
    darc <edge_id> in|out
    p <v> <-1|0|1>

'#' starts a comment; blank lines are ignored.  Serialization is
canonical (sorted ids, rotations started at their smallest dart), so
parse(serialize(g)) == g and serializing a parsed canonical file
reproduces it byte for byte.

Orientation files hold one `<edge_id> <tail_vertex>` line per edge;
flow files hold `<edge_id> <1|2>`.  Both are handled here as plain
edge-keyed dicts.
"""

from __future__ import annotations

import hashlib

from .embedding import EmbeddedGraph, StructureError


class PgrError(Exception):
    """Malformed .pgr or orientation text.  ``line`` is 1-based."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _fmt_sign(s: int) -> str:
    return "+1" if s == 1 else "-1"


def _fmt_dart(d: tuple[int, int]) -> str:
    return f"{d[0]}.{d[1]}"


def serialize_graph(g: EmbeddedGraph, prescription: dict[int, int] | None = None) -> str:
    lines = ["pgr 1"]
    for v in g.vertices:
        lines.append(f"vertex {v}")
    for e in sorted(g.edges):
        u, v = g.edges[e]
        lines.append(f"edge {e} {u} {v} {_fmt_sign(g.sign[e])}")
    for v in g.vertices:
        if g.rotation[v]:
            rot = g._canonical_rotation(v)
            lines.append(f"rot {v} " + " ".join(_fmt_dart(d) for d in rot))
    for a in g.specified:
        lines.append(f"face {_fmt_dart(a)}")
    if g.tvertex is not None:
        lines.append(f"tvertex {g.tvertex}")
    if g.dvertex is not None:
        lines.append(f"dvertex {g.dvertex}")
        for e in sorted(g.darcs):
            lines.append(f"darc {e} {g.darcs[e]}")
    if prescription is not None:
        for v in sorted(prescription):
            lines.append(f"p {v} {prescription[v]}")
    return "\n".join(lines) + "\n"


def _parse_int(token: str, what: str, ln: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise PgrError(f"{what} must be an integer, got {token!r}", ln) from None


def _parse_dart(token: str, ln: int) -> tuple[int, int]:
    e, dot, end = token.partition(".")
    if not dot or end not in ("0", "1"):
        raise PgrError(f"dart must look like <edge>.<0|1>, got {token!r}", ln)
    return (_parse_int(e, "dart edge id", ln), int(end))


def parse_graph(text: str) -> tuple[EmbeddedGraph, dict[int, int] | None]:
    """Parse .pgr text into a graph and its bundled prescription (or None
    when the file has no p lines).  Raises PgrError with a line number."""
    decls: list[tuple[int, list[str]]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            decls.append((ln, body.split()))
    if not decls:
        raise PgrError("empty file")
    ln0, head = decls[0]
    if head != ["pgr", "1"]:
        raise PgrError("first declaration must be 'pgr 1'", ln0)

    g = EmbeddedGraph()
    rot_lines: dict[int, tuple[int, list[tuple[int, int]]]] = {}
    prescription: dict[int, int] | None = None
    for ln, tok in decls[1:]:
        kind, args = tok[0], tok[1:]
        if kind == "vertex":
            if len(args) != 1:
                raise PgrError("vertex takes one id", ln)
            v = _parse_int(args[0], "vertex id", ln)
            if v in g.rotation:
                raise PgrError(f"duplicate vertex {v}", ln)
            g.rotation[v] = []
        elif kind == "edge":
            if len(args) != 4:
                raise PgrError("edge takes id, two endpoints and a sign", ln)
            e = _parse_int(args[0], "edge id", ln)
            if e in g.edges:
                raise PgrError(f"duplicate edge {e}", ln)
            u = _parse_int(args[1], "endpoint", ln)
            v = _parse_int(args[2], "endpoint", ln)
            if args[3] not in ("+1", "-1"):
                raise PgrError(f"sign must be +1 or -1, got {args[3]!r}", ln)
            g.edges[e] = (u, v)
            g.sign[e] = 1 if args[3] == "+1" else -1
        elif kind == "rot":
            if len(args) < 2:
                raise PgrError("rot takes a vertex and at least one dart", ln)
            v = _parse_int(args[0], "vertex id", ln)
            if v in rot_lines:
                raise PgrError(f"duplicate rot for vertex {v}", ln)
            rot_lines[v] = (ln, [_parse_dart(t, ln) for t in args[1:]])
        elif kind == "face":
            if len(args) != 1:
                raise PgrError("face takes one dart", ln)
            if len(g.specified) == 2:
                raise PgrError("at most two face anchors", ln)
            g.specified.append(_parse_dart(args[0], ln))
        elif kind == "tvertex":
            if len(args) != 1 or g.tvertex is not None:
                raise PgrError("tvertex takes one id, once", ln)
            g.tvertex = _parse_int(args[0], "vertex id", ln)
        elif kind == "dvertex":
            if len(args) != 1 or g.dvertex is not None:
                raise PgrError("dvertex takes one id, once", ln)
            g.dvertex = _parse_int(args[0], "vertex id", ln)
        elif kind == "darc":
            if len(args) != 2 or args[1] not in ("in", "out"):
                raise PgrError("darc takes an edge id and in|out", ln)
            e = _parse_int(args[0], "edge id", ln)
            if e in g.darcs:
                raise PgrError(f"duplicate darc for edge {e}", ln)
            g.darcs[e] = args[1]
        elif kind == "p":
            if len(args) != 2:
                raise PgrError("p takes a vertex and a residue", ln)
            v = _parse_int(args[0], "vertex id", ln)
            r = _parse_int(args[1], "residue", ln)
            if r not in (-1, 0, 1):
                raise PgrError(f"residue must be -1, 0 or 1, got {r}", ln)
            if prescription is None:
                prescription = {}
            if v in prescription:
                raise PgrError(f"duplicate prescription for vertex {v}", ln)
            prescription[v] = r
        else:
            raise PgrError(f"unknown declaration {kind!r}", ln)

    for v, (ln, rot) in rot_lines.items():
        if v not in g.rotation:
            raise PgrError(f"rot for undeclared vertex {v}", ln)
        g.rotation[v] = rot
    for e, (u, v) in sorted(g.edges.items()):
        for x in (u, v):
            if x not in g.rotation:
                raise PgrError(f"edge {e} uses undeclared vertex {x}")
    for v in g.rotation:
        if g.rotation[v] == [] and any(v in uv for uv in g.edges.values()):
            raise PgrError(f"vertex {v} has incident edges but no rot line")
    if prescription is not None:
        for v in prescription:
            if v not in g.rotation:
                raise PgrError(f"prescription names undeclared vertex {v}")
    try:
        g.validate()
    except StructureError as exc:
        raise PgrError(str(exc)) from None
    return g, prescription


def read_graph(path) -> tuple[EmbeddedGraph, dict[int, int] | None]:
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def write_graph(path, g: EmbeddedGraph, prescription: dict[int, int] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_graph(g, prescription))


def digest_graph(g: EmbeddedGraph) -> str:
    """Short stable content hash of the canonical serialization."""
    return hashlib.sha256(serialize_graph(g).encode()).hexdigest()[:16]


# ------------------------------------------------- orientations and flows


def serialize_orientation(tails: dict[int, int]) -> str:
    """Orientation text: one `<edge_id> <tail_vertex>` line per edge."""
    return "".join(f"{e} {tails[e]}\n" for e in sorted(tails))


def parse_orientation(text: str) -> dict[int, int]:
    tails: dict[int, int] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        tok = body.split()
        if len(tok) != 2:
            raise PgrError("orientation line is `<edge_id> <tail_vertex>`", ln)
        e = _parse_int(tok[0], "edge id", ln)
        if e in tails:
            raise PgrError(f"duplicate direction for edge {e}", ln)
        tails[e] = _parse_int(tok[1], "tail vertex", ln)
    return tails
