"""Reading and writing the .pgr text format and orientation files.

A .pgr file carries one embedded graph per file, one declaration per
line, and may bundle a prescription:

    pgr 1
    vertex <id>
    edge <id> <u> <v> <+1|-1>
    rot <v> <dart> <dart> ...     # dart written <edge_id>.<0|1>
    face <edge_id>.<0|1>          # specified-face anchor, at most two, naming distinct faces
    tvertex <id>
    dvertex <id>
    darc <edge_id> in|out
    p <v> <-1|0|1>

'#' starts a comment; blank lines are ignored.  Serialization is
canonical (sorted ids, rotations started at their smallest dart), so
parse(serialize(g)) == g and serializing a parsed canonical file
reproduces it byte for byte.

Parsing is one pass over the lines with int() inline: each line's shape,
integers, signs, residues and duplicates, then that rot lines, edge ends
and p lines name declared vertices, then EmbeddedGraph.validate().  The
pass tests line kinds by how often a file holds them: edge, rot, vertex
and p (a few per vertex), then face, tvertex/dvertex and darc (a few per
file).  The kinds exclude each other, so the order changes no result.

Orientation files hold one `<edge_id> <tail_vertex>` line per edge,
read and written here as plain edge-keyed dicts, and prescription files
one `[p] <vertex> <residue>` line per vertex.  Trace text reads its
comments and p lines by the same rules (_lines, _read_residue).
"""

from __future__ import annotations

import hashlib

from .embedding import EmbeddedGraph, StructureError


class PgrError(Exception):
    """Malformed .pgr, orientation, prescription or trace text, with the
    1-based ``line`` it was found on when there is one."""

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


def _lines(text: str):
    """(line number, tokens) of each line, with '#' comments and blank lines cut."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        tok = raw.split("#", 1)[0].split()
        if tok:
            yield ln, tok


# a line's integer fields in reading order, by default one vertex id; the
# fields after them, darts or a trace step's arguments, are named by _MORE_INTS
_INT_FIELDS = {
    "edge": ("edge id", "endpoint", "endpoint"), "p": ("vertex id", "residue"),
    "darc": ("edge id",), "face": (), "orientation": ("edge id", "tail vertex"),
    "threshold": ("threshold",), "step": ("step index",),
}
_MORE_INTS = {"rot": "dart edge id", "face": "dart edge id", "step": "step argument"}
# a sign, and a dart's end in rot and face lines, each read by one lookup
_SIGNS, _ENDS = {"+1": 1, "-1": -1}, {"0": 0, "1": 1}


def _int_error(kind: str, args: list[str], ln: int) -> PgrError:
    """The error for a line whose int() call raised: fields are converted
    in order, so it names the first one that int() rejects."""
    fields = list(zip(args, _INT_FIELDS.get(kind, ("vertex id",))))
    if kind in _MORE_INTS:
        fields += [(t.partition(".")[0], _MORE_INTS[kind]) for t in args[len(fields) :]]
    for token, what in fields:
        try:
            int(token)
        except ValueError:
            break
    return PgrError(f"{what} must be an integer, got {token!r}", ln)


def _read_residue(args: list[str], ln: int, into: dict[int, int]) -> None:
    """Read the arguments of a `p <vertex> <residue>` line into ``into``."""
    if len(args) != 2:
        raise PgrError("p takes a vertex and a residue", ln)
    try:
        v, r = int(args[0]), int(args[1])
    except ValueError:
        raise _int_error("p", args, ln) from None
    if r not in (-1, 0, 1):
        raise PgrError(f"residue must be -1, 0 or 1, got {r}", ln)
    if v in into:
        raise PgrError(f"duplicate prescription for vertex {v}", ln)
    into[v] = r


def parse_graph(text: str) -> tuple[EmbeddedGraph, dict[int, int] | None]:
    """Parse .pgr text into a graph and its bundled prescription (or None
    when the file has no p lines).  Raises PgrError with a line number."""
    g = EmbeddedGraph()
    edges, sign, rotation = g.edges, g.sign, g.rotation
    rot_lines: dict[int, tuple[int, list[tuple[int, int]]]] = {}
    prescription: dict[int, int] = {}
    # the comment rule of _lines, inline: a generator per line costs about 5% here
    lines = enumerate(text.splitlines(), start=1)
    for ln, raw in lines:
        if tok := (raw.partition("#")[0] if "#" in raw else raw).split():
            break
    else:
        raise PgrError("empty file")
    if tok != ["pgr", "1"]:
        raise PgrError("first declaration must be 'pgr 1'", ln)
    for ln, raw in lines:
        tok = (raw.partition("#")[0] if "#" in raw else raw).split()
        if not tok:
            continue
        kind = tok[0]
        try:
            if kind == "edge":
                if len(tok) != 5:
                    raise PgrError("edge takes id, two endpoints and a sign", ln)
                e = int(tok[1])
                if e in edges:
                    raise PgrError(f"duplicate edge {e}", ln)
                u, v = int(tok[2]), int(tok[3])
                if (s := _SIGNS.get(tok[4])) is None:
                    raise PgrError(f"sign must be +1 or -1, got {tok[4]!r}", ln)
                edges[e] = (u, v)
                sign[e] = s
            elif kind == "rot":
                if len(tok) < 3:
                    raise PgrError("rot takes a vertex and at least one dart", ln)
                v = int(tok[1])
                if v in rot_lines:
                    raise PgrError(f"duplicate rot for vertex {v}", ln)
                rot = []
                for t in tok[2:]:
                    e, _, end = t.partition(".")
                    if (end := _ENDS.get(end)) is None:
                        raise PgrError(f"dart must look like <edge>.<0|1>, got {t!r}", ln)
                    rot.append((int(e), end))
                rot_lines[v] = (ln, rot)
            elif kind == "vertex":
                if len(tok) != 2:
                    raise PgrError("vertex takes one id", ln)
                v = int(tok[1])
                if v in rotation:
                    raise PgrError(f"duplicate vertex {v}", ln)
                rotation[v] = []
            elif kind == "p":
                _read_residue(tok[1:], ln, prescription)
            elif kind == "face":
                if len(tok) != 2:
                    raise PgrError("face takes one dart", ln)
                if len(g.specified) == 2:
                    raise PgrError("at most two face anchors", ln)
                e, _, end = tok[1].partition(".")
                if (end := _ENDS.get(end)) is None:
                    raise PgrError(f"dart must look like <edge>.<0|1>, got {tok[1]!r}", ln)
                g.specified.append((int(e), end))
            elif kind in ("tvertex", "dvertex"):
                if len(tok) != 2 or getattr(g, kind) is not None:
                    raise PgrError(f"{kind} takes one id, once", ln)
                setattr(g, kind, int(tok[1]))
            elif kind == "darc":
                if len(tok) != 3 or tok[2] not in ("in", "out"):
                    raise PgrError("darc takes an edge id and in|out", ln)
                e = int(tok[1])
                if e in g.darcs:
                    raise PgrError(f"duplicate darc for edge {e}", ln)
                g.darcs[e] = tok[2]
            else:
                raise PgrError(f"unknown declaration {kind!r}", ln)
        except ValueError:
            raise _int_error(kind, tok[1:], ln) from None

    for v, (ln, rot) in rot_lines.items():
        if v not in rotation:
            raise PgrError(f"rot for undeclared vertex {v}", ln)
        rotation[v] = rot
    stray = [(e, x) for e, uv in edges.items() for x in uv if x not in rotation]
    if stray:
        e, x = min(stray, key=lambda ex: ex[0])  # least edge, its first missing end
        raise PgrError(f"edge {e} uses undeclared vertex {x}")
    if not all(rotation.values()):  # read the edges' ends once, not once per such vertex
        ends = {x for uv in edges.values() for x in uv}
        for v, rot in rotation.items():
            if not rot and v in ends:
                raise PgrError(f"vertex {v} has incident edges but no rot line")
    for v in prescription:
        if v not in rotation:
            raise PgrError(f"prescription names undeclared vertex {v}")
    try:
        g.validate()
    except StructureError as exc:
        raise PgrError(str(exc)) from None
    return g, prescription or None


def read_graph(path) -> tuple[EmbeddedGraph, dict[int, int] | None]:
    with open(path, encoding="utf-8-sig") as fh:
        return parse_graph(fh.read())


def write_graph(path, g: EmbeddedGraph, prescription: dict[int, int] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_graph(g, prescription))


def digest_graph(g: EmbeddedGraph) -> str:
    """Short stable content hash of the canonical serialization."""
    return hashlib.sha256(serialize_graph(g).encode()).hexdigest()[:16]


# ------------------------------------------- orientations and prescriptions


def serialize_orientation(tails: dict[int, int]) -> str:
    """Orientation text: one `<edge_id> <tail_vertex>` line per edge."""
    return "".join(f"{e} {tails[e]}\n" for e in sorted(tails))


def parse_orientation(text: str) -> dict[int, int]:
    tails: dict[int, int] = {}
    for ln, tok in _lines(text):
        if len(tok) != 2:
            raise PgrError("orientation line is `<edge_id> <tail_vertex>`", ln)
        try:
            e = int(tok[0])
            if e in tails:
                raise PgrError(f"duplicate direction for edge {e}", ln)
            tails[e] = int(tok[1])
        except ValueError:
            raise _int_error("orientation", tok, ln) from None
    return tails


def parse_prescription(text: str) -> dict[int, int]:
    """Prescription text: a `[p] <vertex> <residue>` line per vertex."""
    p: dict[int, int] = {}
    for ln, tok in _lines(text):
        _read_residue(tok[1:] if tok[0] == "p" else tok, ln, p)
    if not p:
        raise PgrError("no prescription entries")
    return p
