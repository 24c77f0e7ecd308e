"""The .pgr text format: canonical serialization, parsing, error reporting."""

import dataclasses
import random
import re
import time
from collections import Counter

import pytest

from conftest import (
    bowtie_crosscap,
    random_multigraph,
    reference_check_rotation_system,
    reference_parse_graph,
    triangle,
)
from crossflow import embedding
from crossflow.embedding import EmbeddedGraph
from crossflow.families import gen_a, gen_circulant_b, gen_counterexample, gen_random_pt
from crossflow.orient import random_prescription
from crossflow.pgr import (
    PgrError,
    digest_graph,
    parse_graph,
    parse_orientation,
    parse_prescription,
    serialize_graph,
    serialize_orientation,
)
from crossflow.solver import TraceError, parse_trace


def test_roundtrip_triangle():
    g = triangle()
    h, p = parse_graph(serialize_graph(g))
    assert h == g and p is None


def test_roundtrip_random_graphs():
    for seed in range(30):
        g = random_multigraph(seed)
        h, _ = parse_graph(serialize_graph(g))
        assert h == g, f"seed {seed}"


def test_roundtrip_with_prescription_and_marks():
    g, p, dspec = gen_counterexample(0)
    text = serialize_graph(g, p)
    h, q = parse_graph(text)
    assert h == g
    assert q == p
    assert h.tvertex == g.tvertex and h.dvertex == g.dvertex
    assert h.darcs == g.darcs


def test_serialization_is_canonical():
    g, p = gen_random_pt(5, 9)
    text = serialize_graph(g, p)
    h, q = parse_graph(text)
    assert serialize_graph(h, q) == text


def test_text_carries_every_field():
    # each field of a generated graph comes back from its .pgr text as it
    # was, so the text, and every CLI command that reads it, drops no state
    graphs = {"B7": gen_circulant_b(7), "A7": gen_a(7), "CE0": gen_counterexample(0)[0]}
    graphs.update({f"seed {s}": gen_random_pt(s, 12)[0] for s in range(20)})
    for name, g in graphs.items():
        h, _ = parse_graph(serialize_graph(g))
        for f in dataclasses.fields(EmbeddedGraph):
            if f.name == "rotation":
                got = {v: h._canonical_rotation(v) for v in h.rotation}
                want = {v: g._canonical_rotation(v) for v in g.rotation}
            else:
                got, want = getattr(h, f.name), getattr(g, f.name)
            assert got == want, f"{name}: {f.name}"


def test_two_specified_faces_roundtrip():
    from crossflow.embedding import split_doubled_boundary_vertex

    out = split_doubled_boundary_vertex(bowtie_crosscap(), 0)
    h, _ = parse_graph(serialize_graph(out))
    assert h == out
    assert len(h.specified) == 2


def test_comments_and_blanks_ignored():
    g = triangle()
    lines = serialize_graph(g).splitlines()
    noisy = "\n".join(["# header note", lines[0], ""] + lines[1:] + ["  # trailing"])
    h, _ = parse_graph(noisy)
    assert h == g


def test_digest_sees_signs():
    g = triangle()
    h = g.copy()
    h.sign[0] = -1
    assert digest_graph(g) != digest_graph(h)


def test_orientation_file_roundtrip():
    tails = {0: 1, 1: 2, 2: 0}
    assert parse_orientation(serialize_orientation(tails)) == tails


# one text of each format that pgr's line rules read
_FORMATS = {
    "pgr": (parse_graph, serialize_graph(*gen_counterexample(0)[:2])),
    "orientation": (parse_orientation, serialize_orientation({0: 1, 1: 2, 2: 0})),
    "prescription": (parse_prescription, "p 0 1\n1 -1\np 2 0\n"),
    "trace": (
        parse_trace,
        "trace 1\nthreshold 28\np 0 0\nstep 0 OracleCall args=3 digest=abc\noutcome none\n",
    ),
}


@pytest.mark.parametrize("fmt", sorted(_FORMATS))
def test_every_format_skips_comments_blanks_and_crlf(fmt):
    parse, text = _FORMATS[fmt]
    lines = [f"{line}  # trailing" for line in text.splitlines()]
    noisy = "\r\n".join(["# a full-line comment", "", *lines[:1], "  ", *lines[1:]])
    assert parse(noisy + "\r\n") == parse(text)


def test_one_error_class_for_every_format():
    assert TraceError is PgrError
    with pytest.raises(PgrError) as exc:
        parse_prescription("# residues\np 0 5\n")
    assert str(exc.value) == "line 2: residue must be -1, 0 or 1, got 5"


# ------------------------------------------------------------------- errors


def _expect_error(text, fragment):
    with pytest.raises(PgrError) as exc:
        parse_graph(text)
    assert fragment in str(exc.value)


def test_missing_header():
    _expect_error("vertex 0\n", "pgr 1")


def test_bad_sign():
    _expect_error("pgr 1\nvertex 0\nvertex 1\nedge 0 0 1 2\n", "sign")


def test_edge_with_unknown_vertex():
    _expect_error("pgr 1\nvertex 0\nedge 0 0 9 +1\n", "9")


def test_duplicate_edge_id():
    _expect_error(
        "pgr 1\nvertex 0\nvertex 1\nedge 0 0 1 +1\nedge 0 1 0 +1\n", "edge 0"
    )


def test_error_reports_line_number():
    with pytest.raises(PgrError) as exc:
        parse_graph("pgr 1\nvertex 0\nbogus 1 2\n")
    assert exc.value.line == 3


def test_rotation_must_match_incidences():
    text = "pgr 1\nvertex 0\nvertex 1\nedge 0 0 1 +1\nrot 0 0.1\n"
    with pytest.raises(PgrError):
        parse_graph(text)


# Every PgrError branch of parse_graph, one malformed input each, with the
# message and line the line-by-line parser gave, plus inputs with two
# faults, where the one read first must be reported.
H = "pgr 1\n"
V2 = H + "vertex 0\nvertex 1\n"
TRI = V2 + (
    "vertex 2\nedge 0 0 1 +1\nedge 1 1 2 +1\nedge 2 2 0 +1\n"
    "rot 0 0.0 2.1\nrot 1 1.0 0.1\nrot 2 2.0 1.1\n"
)
PARSE_ERRORS = [
    ("", None, "empty file"),
    ("# only a comment\n\n", None, "empty file"),
    ("vertex 0\n", 1, "first declaration must be 'pgr 1'"),
    ("pgr 2\n", 1, "first declaration must be 'pgr 1'"),
    (H + "vertex\n", 2, "vertex takes one id"),
    (H + "vertex x\n", 2, "vertex id must be an integer, got 'x'"),
    (H + "vertex 0\nvertex 0\n", 3, "duplicate vertex 0"),
    (V2 + "edge 0 0 1\n", 4, "edge takes id, two endpoints and a sign"),
    (V2 + "edge a 0 1 +1\n", 4, "edge id must be an integer, got 'a'"),
    (V2 + "edge 0 0 1 +1\nedge 0 1 0 +1\n", 5, "duplicate edge 0"),
    (V2 + "edge 0 0 1 +1\nedge 0 1 y +1\n", 5, "duplicate edge 0"),
    (V2 + "edge 0 0 y +1\n", 4, "endpoint must be an integer, got 'y'"),
    (V2 + "edge 0 x y +1\n", 4, "endpoint must be an integer, got 'x'"),
    (V2 + "edge 0 0 1 2\n", 4, "sign must be +1 or -1, got '2'"),
    (V2 + "edge 0 0 1 1\n", 4, "sign must be +1 or -1, got '1'"),
    (H + "rot 0\n", 2, "rot takes a vertex and at least one dart"),
    (H + "rot z 0.1\n", 2, "vertex id must be an integer, got 'z'"),
    (H + "rot 0 0.1\nrot 0 0.0\n", 3, "duplicate rot for vertex 0"),
    (H + "rot 0 0:1\n", 2, "dart must look like <edge>.<0|1>, got '0:1'"),
    (H + "rot 0 0.2\n", 2, "dart must look like <edge>.<0|1>, got '0.2'"),
    (H + "rot 0 .1\n", 2, "dart edge id must be an integer, got ''"),
    (H + "rot 0 q.1\n", 2, "dart edge id must be an integer, got 'q'"),
    (H + "rot 0 q.1 0:1\n", 2, "dart edge id must be an integer, got 'q'"),
    (H + "rot 0 0:1 q.1\n", 2, "dart must look like <edge>.<0|1>, got '0:1'"),
    (H + "rot 0 0.0 q.1\n", 2, "dart edge id must be an integer, got 'q'"),
    (H + "face\n", 2, "face takes one dart"),
    (H + "face 0.1 0.0\n", 2, "face takes one dart"),
    (H + "face 0.1\nface 0.0\nface 1.0\n", 4, "at most two face anchors"),
    (H + "face x.0\n", 2, "dart edge id must be an integer, got 'x'"),
    (H + "face 0.2\n", 2, "dart must look like <edge>.<0|1>, got '0.2'"),
    (H + "tvertex\n", 2, "tvertex takes one id, once"),
    (H + "tvertex 0\ntvertex 0\n", 3, "tvertex takes one id, once"),
    (H + "tvertex x\n", 2, "vertex id must be an integer, got 'x'"),
    (H + "dvertex 0 1\n", 2, "dvertex takes one id, once"),
    (H + "dvertex 0\ndvertex 1\n", 3, "dvertex takes one id, once"),
    (H + "dvertex x\n", 2, "vertex id must be an integer, got 'x'"),
    (H + "darc 0 sideways\n", 2, "darc takes an edge id and in|out"),
    (H + "darc 0\n", 2, "darc takes an edge id and in|out"),
    (H + "darc x in\n", 2, "edge id must be an integer, got 'x'"),
    (H + "darc 0 in\ndarc 0 out\n", 3, "duplicate darc for edge 0"),
    (H + "p 0\n", 2, "p takes a vertex and a residue"),
    (H + "p x 0\n", 2, "vertex id must be an integer, got 'x'"),
    (H + "p 0 y\n", 2, "residue must be an integer, got 'y'"),
    (H + "p 0 2\n", 2, "residue must be -1, 0 or 1, got 2"),
    (H + "p 0 0\np 0 1\n", 3, "duplicate prescription for vertex 0"),
    (H + "bogus 1 2\n", 2, "unknown declaration 'bogus'"),
    (H + "vertex 0\nedge 0 0 0 +1\nrot 7 0.0 0.1\nbogus\n", 5, "unknown declaration 'bogus'"),
    (V2 + "rot 0 0.0\nrot 5 0.1\n", 5, "rot for undeclared vertex 5"),
    (V2 + "edge 5 0 9 +1\nedge 3 8 1 +1\n", None, "edge 3 uses undeclared vertex 8"),
    (V2 + "edge 0 0 1 +1\nrot 0 0.0\n", None, "vertex 1 has incident edges but no rot line"),
    (TRI + "p 0 0\np 9 0\n", None, "prescription names undeclared vertex 9"),
    (V2 + "edge 0 0 1 +1\nrot 0 0.1\nrot 1 0.0\n", None, "rotation at vertex 0 is malformed"),
    (TRI + "face 7.0\n", None, "face anchor (7, 0) is not a dart"),
    (TRI + "tvertex 9\n", None, "tvertex is not a vertex"),
    (TRI + "dvertex 9\n", None, "dvertex is not a vertex"),
    (TRI + "darc 0 in\n", None, "darcs given without a dvertex"),
    (TRI + "dvertex 2\ndarc 0 in\n", None, "darc edge 0 is not incident to dvertex"),
    (TRI + "rot 0 0.0\n", 11, "duplicate rot for vertex 0"),
    # two faults on one line: the one reported first is pinned
    (H + "rot 0 q:1\n", 2, "dart must look like <edge>.<0|1>, got 'q:1'"),
    (H + "rot 0 q.2\n", 2, "dart must look like <edge>.<0|1>, got 'q.2'"),
    (H + "rot x 0:1\n", 2, "vertex id must be an integer, got 'x'"),
    (H + "rot 0 0.1\nrot 0 q:1\n", 3, "duplicate rot for vertex 0"),
    (H + "rot 0 1.0.1\n", 2, "dart must look like <edge>.<0|1>, got '1.0.1'"),
    (H + "rot 0 3.\n", 2, "dart must look like <edge>.<0|1>, got '3.'"),
    (H + "face q.2\n", 2, "dart must look like <edge>.<0|1>, got 'q.2'"),
    (H + "face .1\n", 2, "dart edge id must be an integer, got ''"),
    (H + "face 0.1\nface 0.0\nface q:2\n", 4, "at most two face anchors"),
    (V2 + "edge 0 0 1 +1\nedge 0 1 0 2\n", 5, "duplicate edge 0"),
    (V2 + "edge 0 0 y 2\n", 4, "endpoint must be an integer, got 'y'"),
    (V2 + "edge x 0 1 2\n", 4, "edge id must be an integer, got 'x'"),
    (V2 + "edge x 0 1\n", 4, "edge takes id, two endpoints and a sign"),
    (H + "vertex x 1\n", 2, "vertex takes one id"),
    (H + "vertex 0\nvertex 0 x\n", 3, "vertex takes one id"),
    (H + "p 0 0\np 0 5\n", 3, "residue must be -1, 0 or 1, got 5"),
    (H + "p x 5\n", 2, "vertex id must be an integer, got 'x'"),
    (H + "tvertex 0\ntvertex x\n", 3, "tvertex takes one id, once"),
    (H + "darc x sideways\n", 2, "darc takes an edge id and in|out"),
    (H + "darc 0 in\ndarc 0 sideways\n", 3, "darc takes an edge id and in|out"),
    (H + "pgr 1\n", 2, "unknown declaration 'pgr'"),
    (H + "edge#\n", 2, "edge takes id, two endpoints and a sign"),
]


@pytest.mark.parametrize("text,line,message", PARSE_ERRORS)
def test_parse_error_table(text, line, message):
    with pytest.raises(PgrError) as exc:
        parse_graph(text)
    assert exc.value.line == line
    assert str(exc.value) == (message if line is None else f"line {line}: {message}")


# int() spellings the parser accepts, with the canonical text of what the
# line-by-line parser read from them
ACCEPTED_INTEGERS = [
    (
        "pgr 1\nvertex +5\nvertex 007\nvertex 1_0\nedge +0 +5 007 +1\n"
        "edge 01 007 1_0 -1\nedge 0_2 1_0 5 +1\nrot 5 +0.0 2.1\nrot 7 0.1 1.0\n"
        "rot 10 1.1 2.0\nface 0_0.0\np +5 -0\np 007 +1\np 1_0 -1\n",
        "pgr 1\nvertex 5\nvertex 7\nvertex 10\nedge 0 5 7 +1\nedge 1 7 10 -1\n"
        "edge 2 10 5 +1\nrot 5 0.0 2.1\nrot 7 0.1 1.0\nrot 10 1.1 2.0\nface 0.0\n"
        "p 5 0\np 7 1\np 10 -1\n",
    ),
    (
        "pgr 1\nvertex 0\nvertex 1\nedge 0 0 1 +1\nrot 0 0.0\nrot 1 0.1\n"
        "tvertex +0\ndvertex 01\ndarc 0_0 in\n",
        "pgr 1\nvertex 0\nvertex 1\nedge 0 0 1 +1\nrot 0 0.0\nrot 1 0.1\n"
        "tvertex 0\ndvertex 1\ndarc 0 in\n",
    ),
    (
        "pgr 1\nvertex ٣\nvertex 1\nedge 0 ٣ 1 +1\nrot 3 0.0\nrot 1 0.1\n",
        "pgr 1\nvertex 1\nvertex 3\nedge 0 3 1 +1\nrot 1 0.1\nrot 3 0.0\n",
    ),
]


@pytest.mark.parametrize("text,canonical", ACCEPTED_INTEGERS)
def test_parse_accepts_int_spellings(text, canonical):
    g, p = parse_graph(text)
    assert serialize_graph(g, p) == canonical


def test_edge_ends_are_read_once_for_isolated_vertices():
    # "incident edges but no rot line" reads the edges' ends once, not
    # once per vertex with an empty rotation: 10,000 isolated vertices
    # beside a cycle of 10,000 edges parse in linear time
    n = 10_000
    lines = ["pgr 1", *(f"vertex {v}" for v in range(2 * n))]
    lines += [f"edge {e} {e} {(e + 1) % n} +1" for e in range(n)]
    lines += [f"rot {v} {v}.0 {(v - 1) % n}.1" for v in range(n)]
    text = "\n".join(lines) + "\n"
    start = time.perf_counter()
    g, _ = parse_graph(text)
    assert time.perf_counter() - start < 2.0
    assert len(g.rotation) == 2 * n and len(g.edges) == n
    with pytest.raises(PgrError) as exc:
        parse_graph(text.replace(f"rot {n - 1} ", "# rot "))
    assert str(exc.value) == f"vertex {n - 1} has incident edges but no rot line"


# tokens a mutant puts in place of a token, or between two
MUTANT_TOKENS = (
    "#", "x", "3.", ".1", "1.0.1", "0", "1", "2", "-1", "+1", "0.0", "1.1", "0.2",
    "in", "out", "pgr", "vertex", "edge", "rot", "face", "tvertex", "dvertex", "darc", "p",
)


def _mutant(lines: list[str], rng: random.Random) -> str:
    """One to three edits of ``lines``: delete, duplicate or swap lines,
    or replace one or two tokens of a line, or insert one, from
    MUTANT_TOKENS."""
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        i, op = rng.randrange(len(lines)), rng.randrange(6)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
        elif op == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            tok = lines[i].split(" ")
            if op < 5:
                for _ in range(op - 2):
                    tok[rng.randrange(len(tok))] = rng.choice(MUTANT_TOKENS)
            else:
                tok.insert(rng.randrange(len(tok) + 1), rng.choice(MUTANT_TOKENS))
            lines[i] = " ".join(tok)
        if not lines:
            break
    return "\n".join(lines) + "\n"


def _parsed(parse, text):
    """Everything a parse gives, dict orders included, or its error."""
    try:
        g, p = parse(text)
    except Exception as exc:  # the class and the message are compared
        return type(exc), str(exc), getattr(exc, "line", None)
    fields = (g.edges, g.sign, g.rotation, g.darcs)
    return serialize_graph(g, p), [list(f.items()) for f in fields], p, g.specified, g.tvertex, g.dvertex


def test_parse_matches_the_reference_on_mutants(monkeypatch):
    # seeded mutants of corpus, circulant and counterexample texts give
    # the graph, prescription and marks, or the error class, message and
    # line, that the line-by-line reference parser and rotation check gave
    sources = [serialize_graph(*gen_random_pt(s, 12)) for s in range(30)]
    for i in (5, 7, 9):
        for g in (gen_circulant_b(i), gen_a(i)):
            sources.append(serialize_graph(g, random_prescription(g, i)))
    sources += [serialize_graph(*gen_counterexample(k)[:2]) for k in (0, 1)]
    rng = random.Random(39)
    texts = [_mutant(sources[j % len(sources)].splitlines(), rng) for j in range(6000)]
    got = [_parsed(parse_graph, t) for t in texts]
    monkeypatch.setattr(embedding, "_check_rotation_system", reference_check_rotation_system)
    want = [_parsed(reference_parse_graph, t) for t in texts]
    differ = [t for t, a, b in zip(texts, got, want) if a != b]
    assert not differ, differ[:3]
    kinds = Counter("parsed" if isinstance(w[0], str) else re.sub(r"\d+|'.*'", "N", w[1]) for w in want)
    assert kinds["parsed"] >= 300 and len(kinds) >= 30, kinds


ORIENTATION_ERRORS = [
    ("0 1 2\n", 1, "orientation line is `<edge_id> <tail_vertex>`"),
    ("x 1\n", 1, "edge id must be an integer, got 'x'"),
    ("0 y\n", 1, "tail vertex must be an integer, got 'y'"),
    ("x y\n", 1, "edge id must be an integer, got 'x'"),
    ("0 1\n0 2\n", 2, "duplicate direction for edge 0"),
    ("0 1\n0 y\n", 2, "duplicate direction for edge 0"),
]


@pytest.mark.parametrize("text,line,message", ORIENTATION_ERRORS)
def test_orientation_error_table(text, line, message):
    with pytest.raises(PgrError) as exc:
        parse_orientation(text)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


def test_orientation_accepts_int_spellings():
    assert parse_orientation("# c\n\n1 +2\n1_0 07\n") == {1: 2, 10: 7}
