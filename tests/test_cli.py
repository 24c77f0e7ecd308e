"""End-to-end CLI behaviour through main(argv): outputs and exit codes.

Exit code contract: 0 solved/valid, 1 proven none/invalid/class fails,
2 engine refusal, 3 bad input.
"""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import crossflow
from conftest import _count_calls, build_graph, cycle_graph, triangle_with_loop, two_triangles
from crossflow import embedding, families
from crossflow import solver as solver_module
from crossflow.cli import main
from crossflow.embedding import EmbeddedGraph, StructureError, specified_walk
from crossflow.families import gen_circulant_b, gen_counterexample, gen_random_pt
from crossflow.orient import prescription_ok, random_prescription
from crossflow.pgr import PgrError, parse_graph, read_graph, serialize_graph, write_graph
from crossflow.solver import parse_trace, replay, serialize_trace, solve


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def b7_file(tmp_path):
    path = tmp_path / "b7.pgr"
    write_graph(path, gen_circulant_b(7))
    return str(path)


@pytest.fixture
def ce_file(tmp_path):
    g, p, dspec = gen_counterexample(0)
    path = tmp_path / "ce0.pgr"
    write_graph(path, g, p)
    return str(path)


# --------------------------------------------------------------------- gen


def test_gen_b_writes_parseable_graph(tmp_path, capsys):
    out = tmp_path / "g.pgr"
    code, _, _ = run(capsys, "gen", "b", "7", "-o", str(out))
    assert code == 0
    g, p = read_graph(out)
    assert len(g.vertices) == 7 and p is None


def test_gen_ce_bundles_prescription(tmp_path, capsys):
    out = tmp_path / "ce.pgr"
    code, _, _ = run(capsys, "gen", "ce", "0", "-o", str(out))
    assert code == 0
    g, p = read_graph(out)
    assert p is not None and sum(p.values()) == 6
    assert g.dvertex is not None


def test_gen_rpt_seeded(tmp_path, capsys):
    out = tmp_path / "r.pgr"
    code, _, _ = run(capsys, "gen", "rpt", "5", "-o", str(out))
    assert code == 0
    g, p = read_graph(out)
    assert p is not None and len(g.vertices) <= 9


def test_gen_to_stdout(capsys):
    code, out, _ = run(capsys, "gen", "b", "5")
    assert code == 0
    g, _ = parse_graph(out)
    assert len(g.edges) == 10


def test_gen_bad_parameter(capsys):
    code, _, err = run(capsys, "gen", "b", "6")
    assert code == 3
    assert err


# ------------------------------------------------------------------- solve


def test_solve_b7_random_prescription(b7_file, tmp_path, capsys):
    trace_path = tmp_path / "t.trace"
    code, out, _ = run(
        capsys, "solve", b7_file, "--p", "random", "--trace", str(trace_path)
    )
    assert code == 0
    assert out.strip()
    trace = parse_trace(trace_path.read_text())
    g, _ = read_graph(b7_file)
    assert replay(g, trace).matches


def test_solve_trace_file_is_the_in_process_trace(tmp_path, capsys):
    path = tmp_path / "b51.pgr"
    write_graph(path, gen_circulant_b(51))
    trace_path = tmp_path / "b51.trace"
    code, _, _ = run(
        capsys, "solve", str(path), "--p", "random", "--seed", "3",
        "--trace", str(trace_path),
    )
    assert code == 0
    g, _ = read_graph(path)
    _, trace = solve(g, random_prescription(g, 3))
    assert trace_path.read_bytes() == serialize_trace(trace).encode()
    assert replay(g, parse_trace(trace_path.read_text())).matches


def test_solve_counterexample_exit1(ce_file, capsys):
    code, out, err = run(capsys, "solve", ce_file)
    assert code == 1
    assert "no valid orientation" in err


def test_solve_counterexample_trace_records_none(ce_file, tmp_path, capsys):
    trace_path = tmp_path / "ce.trace"
    code, _, _ = run(capsys, "solve", ce_file, "--trace", str(trace_path))
    assert code == 1
    assert parse_trace(trace_path.read_text()).outcome == "none"


def test_solve_without_prescription_needs_embedded_one(b7_file, capsys):
    code, _, err = run(capsys, "solve", b7_file)
    assert code == 3


def test_solve_threshold_option_gone_exit3(tmp_path, capsys):
    # orientable, and solved by one oracle call over all 19 edges; the
    # free-edge threshold bounds nothing, so there is no option to set it,
    # and every trace keeps the fixed line "threshold 28"
    g, p = gen_random_pt(5, 9)
    path = tmp_path / "rpt5.pgr"
    write_graph(path, g, p)
    code, _, _ = run(capsys, "solve", str(path), "--threshold", "4")
    assert code == 3
    trace_path = tmp_path / "rpt5.trace"
    orientation = tmp_path / "o.txt"
    code, _, _ = run(capsys, "solve", str(path),
                     "--trace", str(trace_path), "-o", str(orientation))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(path), str(orientation))
    assert code == 0 and out.strip() == "valid"
    assert trace_path.read_text().splitlines()[1] == "threshold 28"


def test_solve_over_state_budget_exit2(tmp_path, capsys):
    # K11 reaches the oracle (no cut of size <= 5, no family) and passes
    # the frontier DP's state budget
    edges = {}
    for u in range(11):
        for v in range(u + 1, 11):
            edges[len(edges)] = (u, v)
    path = tmp_path / "k11.pgr"
    write_graph(path, build_graph(edges), {v: 0 for v in range(11)})
    start = time.perf_counter()
    code, out, err = run(capsys, "solve", str(path))
    assert time.perf_counter() - start < 20
    assert code == 2 and out == ""
    assert "budget of 262144 states at frontier width" in err
    assert "Traceback" not in err


def test_solve_prescription_file(b7_file, tmp_path, capsys):
    g = gen_circulant_b(7)
    pfile = tmp_path / "p.txt"
    pfile.write_text("".join(f"p {v} 0\n" for v in g.vertices))
    code, out, _ = run(capsys, "solve", b7_file, "--p", str(pfile))
    assert code == 0


# ------------------------------------------------------------------ verify


def test_verify_accepts_solver_output(b7_file, tmp_path, capsys):
    g = gen_circulant_b(7)
    pfile = tmp_path / "p.txt"
    pfile.write_text("".join(f"p {v} 0\n" for v in g.vertices))
    ofile = tmp_path / "o.txt"
    code, out, _ = run(capsys, "solve", b7_file, "--p", str(pfile), "-o", str(ofile))
    assert code == 0
    # verify needs the prescription embedded in the graph file
    gfile = tmp_path / "b7p.pgr"
    write_graph(gfile, g, {v: 0 for v in g.vertices})
    code, out, _ = run(capsys, "verify", str(gfile), str(ofile))
    assert code == 0
    assert "valid" in out


def test_verify_takes_prescription_flag(b7_file, tmp_path, capsys):
    # gen -> solve -> verify without editing the graph file: the same
    # --p random --seed pair names the same prescription on both ends
    ofile = tmp_path / "o.txt"
    code, _, _ = run(
        capsys, "solve", b7_file, "--p", "random", "--seed", "3", "-o", str(ofile)
    )
    assert code == 0
    code, out, _ = run(
        capsys, "verify", b7_file, str(ofile), "--p", "random", "--seed", "3"
    )
    assert code == 0 and "valid" in out
    # a different seed names a different prescription: must not verify
    code, out, _ = run(
        capsys, "verify", b7_file, str(ofile), "--p", "random", "--seed", "4"
    )
    assert code == 1
    # and with no source at all the command refuses
    code, _, err = run(capsys, "verify", b7_file, str(ofile))
    assert code == 3 and "prescription" in err


def test_verify_rejects_wrong_orientation(tmp_path, capsys):
    g = gen_circulant_b(5)
    gfile = tmp_path / "g.pgr"
    write_graph(gfile, g, {v: 0 for v in g.vertices})
    ofile = tmp_path / "o.txt"
    ofile.write_text("".join(f"{e} {g.edges[e][0]}\n" for e in sorted(g.edges)))
    code, out, _ = run(capsys, "verify", str(gfile), str(ofile))
    assert code in (0, 1)  # depends on whether the all-tail-0 choice lands
    # tampering with one line flips at least two residues: must go invalid
    lines = ofile.read_text().splitlines()
    e0 = sorted(g.edges)[0]
    lines[0] = f"{e0} {g.edges[e0][1]}"
    ofile.write_text("\n".join(lines) + "\n")
    code2, out2, _ = run(capsys, "verify", str(gfile), str(ofile))
    assert code != code2 or code2 == 1


@pytest.mark.parametrize("keep", ["one line dropped", "empty"])
def test_verify_partial_orientation_is_invalid(b7_file, tmp_path, capsys, keep):
    # an edge the file leaves undirected is a misfit, like an unknown edge:
    # "invalid" and exit 1, not an input error
    ofile = tmp_path / "o.txt"
    code, _, _ = run(
        capsys, "solve", b7_file, "--p", "random", "--seed", "3", "-o", str(ofile)
    )
    assert code == 0
    lines = ofile.read_text().splitlines(keepends=True)
    kept = lines[:2] + lines[3:] if keep == "one line dropped" else []
    ofile.write_text("".join(kept))
    missing = 2 if kept else 0  # the least edge id without a line
    code, out, err = run(
        capsys, "verify", b7_file, str(ofile), "--p", "random", "--seed", "3"
    )
    assert code == 1 and out.strip() == "invalid"
    assert f"orientation does not fit the graph: edge {missing} is undirected" in err


# ------------------------------------------------------------------ oracle


def test_oracle_subcommand(b7_file, capsys):
    code, out, _ = run(capsys, "oracle", b7_file, "--p", "random")
    assert code == 0
    assert out.strip()


def test_oracle_counterexample_exit1(ce_file, capsys):
    code, _, err = run(capsys, "oracle", ce_file)
    assert code == 1


def test_oracle_past_old_threshold_exit0(tmp_path, capsys):
    # 102 free edges, far past the free-edge threshold that used to refuse
    path = tmp_path / "b51.pgr"
    write_graph(path, gen_circulant_b(51))
    orientation = tmp_path / "o.txt"
    code, _, _ = run(capsys, "oracle", str(path), "--p", "random", "--seed", "0",
                     "-o", str(orientation))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(path), str(orientation),
                       "--p", "random", "--seed", "0")
    assert code == 0 and out.strip() == "valid"


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_loop_reaching_the_oracle_exit0(tmp_path, capsys, command):
    g = triangle_with_loop()
    path = tmp_path / "loop.pgr"
    write_graph(path, g, {v: 0 for v in g.vertices})
    code, out, err = run(capsys, command, str(path), "-o", str(tmp_path / "o.txt"))
    assert code == 0 and err == ""
    code, out, _ = run(capsys, "verify", str(path), str(tmp_path / "o.txt"))
    assert code == 0 and out.strip() == "valid"


@pytest.mark.parametrize("way, code", [("in", 1), ("out", 0)])
@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_forced_loop_at_the_directed_vertex(tmp_path, capsys, command, way, code):
    # a loop's tail is the directed vertex either way round: forced "in" it
    # is a proven none, forced "out" it is met
    g = triangle_with_loop()
    g.darcs = {0: "out", 3: way}
    path = tmp_path / "loop.pgr"
    write_graph(path, g, {v: 0 for v in g.vertices})
    got, _, err = run(capsys, command, str(path), "-o", str(tmp_path / "o.txt"))
    assert got == code, err
    if code == 0:
        got, out, _ = run(capsys, "verify", str(path), str(tmp_path / "o.txt"))
        assert got == 0 and out.strip() == "valid"


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_empty_graph_random_prescription_exit0(tmp_path, capsys, command):
    path = tmp_path / "empty.pgr"
    path.write_text("pgr 1\n")
    orientation = tmp_path / "o.txt"
    code, _, err = run(capsys, command, str(path), "--p", "random",
                       "-o", str(orientation))
    assert code == 0 and err == ""
    code, out, _ = run(capsys, "verify", str(path), str(orientation), "--p", "random")
    assert code == 0 and out.strip() == "valid"


@pytest.mark.parametrize("total, code", [(0, 0), (1, 1)], ids=["valid", "none"])
def test_solve_two_components_exits_as_oracle(tmp_path, capsys, total, code):
    # the per-component totals are (0, 0) or (1, -1): both total 0 mod 3
    g = two_triangles()
    path = tmp_path / "two.pgr"
    write_graph(path, g, {**{v: 0 for v in g.rotation}, 0: total, 3: -total})
    for command in ("solve", "oracle"):
        got, _, err = run(capsys, command, str(path))
        assert got == code, (command, err)


def _odd_graphs():
    """Small inputs at the edge of what the commands expect."""
    lone = EmbeddedGraph()
    lone.rotation = {0: []}
    loops = {
        f"loop{s:+d}": build_graph({0: (0, 0)}, signs={0: s}, specified_anchor=(0, 0))
        for s in (1, -1)
    }
    anchors = cycle_graph(3)
    anchors.specified = [(0, 0), (0, 1)]
    return {"two": two_triangles(), "lone": lone, **loops, "anchors": anchors}


_ODD_COMMANDS = [
    ["solve"],
    ["oracle"],
    ["solve", "--p", "random", "--seed", "1"],
    ["oracle", "--p", "random", "--seed", "1"],
    ["faces"],
    ["cuts"],
    ["cuts", "--max", "3", "--min-side", "0"],
] + [["check", "--class", k] for k in ("pt", "3pt", "ft", "dts", "3dts")]


@pytest.mark.parametrize("name", ["two", "lone", "loop+1", "loop-1", "anchors"])
def test_odd_files_give_an_exit_code(tmp_path, capsys, name):
    # every command answers with an exit code, nothing escapes main, and
    # solve answers as the oracle does
    g = _odd_graphs()[name]
    path = tmp_path / f"{name}.pgr"
    write_graph(path, g, {v: 0 for v in g.rotation})
    codes = {}
    for command in _ODD_COMMANDS:
        code, _, err = run(capsys, command[0], str(path), *command[1:])
        assert code in (0, 1, 2, 3), (command, code)
        assert "Traceback" not in err
        codes[" ".join(command)] = code
    for args in ("", " --p random --seed 1"):
        assert codes["solve" + args] == codes["oracle" + args], args


@pytest.mark.parametrize(
    "command", [c for c in _ODD_COMMANDS if len(c) <= 3], ids=" ".join
)
def test_repeated_face_line_exit3(tmp_path, capsys, command):
    # one face named twice is not two specified faces
    text = serialize_graph(gen_circulant_b(5))
    face = next(line for line in text.splitlines() if line.startswith("face "))
    path = tmp_path / "twice.pgr"
    path.write_text(text + face + "\n")
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 3 and out == ""
    assert err.startswith("input error: ") and "given twice" in err


@pytest.mark.parametrize(
    "command", [c for c in _ODD_COMMANDS if len(c) <= 3], ids=" ".join
)
def test_two_anchors_of_one_face_exit3(tmp_path, capsys, command):
    # two distinct darts, both traversed +1 on B5's one specified face
    g = gen_circulant_b(5)
    g.specified = [(0, 1), (4, 1)]
    with pytest.raises(StructureError, match="name one face"):
        g.validate()
    text = serialize_graph(g)
    with pytest.raises(PgrError, match="name one face"):
        parse_graph(text)
    path = tmp_path / "one_face.pgr"
    path.write_text(text)
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 3 and out == ""
    assert err.startswith("input error: ") and "name one face" in err


_K4_CENTRE_MINUS_ONE = """pgr 1
vertex -1
vertex 0
vertex 1
vertex 2
edge 0 0 1 +1
edge 1 1 2 +1
edge 2 2 0 +1
edge 3 0 -1 +1
edge 4 1 -1 +1
edge 5 2 -1 +1
rot -1 3.1 4.1 5.1
rot 0 0.0 3.0 2.1
rot 1 1.0 4.0 0.1
rot 2 2.0 5.0 1.1
face 0.0
"""


@pytest.mark.parametrize(
    "command", _ODD_COMMANDS + [["verify", "{o}", "--p", "random"]], ids=" ".join
)
def test_negative_id_exit3(tmp_path, capsys, command):
    # a plane K4 whose centre is vertex -1; ids are non-negative, and the
    # max-flow of check's path condition takes -1 for its sink
    path = tmp_path / "k4.pgr"
    path.write_text(_K4_CENTRE_MINUS_ONE)
    orientation = tmp_path / "o.txt"
    orientation.write_text("")
    args = [a.format(o=orientation) for a in command[1:]]
    code, out, err = run(capsys, command[0], str(path), *args)
    assert code == 3 and out == ""
    assert err == f"input error: {path}: vertex id -1 is negative\n"


def _b5_prescription_cases(tmp_path):
    """B5 with an orientation of it, and a prescription file for each
    defect: a vertex missing, an unknown vertex, a residue out of range."""
    g = gen_circulant_b(5)
    graph = tmp_path / "b5.pgr"
    write_graph(graph, g)
    orientation = tmp_path / "o.txt"
    orientation.write_text("".join(f"{e} {g.edges[e][0]}\n" for e in sorted(g.edges)))
    verts = sorted(g.vertices)
    files = {
        "missing": {v: 0 for v in verts[1:]},
        "extra": {**{v: 0 for v in verts}, verts[-1] + 1: 0},
        "range": {**{v: 0 for v in verts}, verts[0]: 5},
    }
    for name, p in files.items():
        path = tmp_path / f"{name}.txt"
        path.write_text("".join(f"{v} {r}\n" for v, r in p.items()))
        files[name] = str(path)
    return g, str(graph), str(orientation), files


_DEFECT_MESSAGES = {
    "missing": "prescription misses vertex",
    "extra": "prescription names unknown vertex",
    "range": "{range}: line 1: residue must be -1, 0 or 1, got 5",
}


@pytest.mark.parametrize("defect", sorted(_DEFECT_MESSAGES))
@pytest.mark.parametrize("command", ["solve", "oracle", "verify"])
def test_malformed_prescription_file_exit3(tmp_path, capsys, command, defect):
    _, graph, orientation, files = _b5_prescription_cases(tmp_path)
    argv = [command, graph] + ([orientation] if command == "verify" else [])
    code, out, err = run(capsys, *argv, "--p", files[defect])
    assert code == 3 and out == ""
    assert err.startswith(f"input error: {_DEFECT_MESSAGES[defect].format(**files)}")


@pytest.mark.parametrize("command", ["solve", "oracle", "verify"])
def test_embedded_prescription_missing_a_vertex_exit3(tmp_path, capsys, command):
    g, _, orientation, _ = _b5_prescription_cases(tmp_path)
    path = tmp_path / "b5p.pgr"
    write_graph(path, g, {v: 0 for v in sorted(g.vertices)[1:]})
    argv = [command, str(path)] + ([orientation] if command == "verify" else [])
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("input error: prescription misses vertex")


@pytest.mark.parametrize("command", ["solve", "oracle", "verify"])
def test_prescription_total_off_is_a_definite_negative(tmp_path, capsys, monkeypatch, command):
    # well formed, but its total is 1 mod 3: no orientation can meet it;
    # verify reads that from is_valid_orientation, with no check of its own
    g, graph, orientation, _ = _b5_prescription_cases(tmp_path)
    pfile = tmp_path / "p.txt"
    pfile.write_text("".join(f"{v} {int(v == min(g.vertices))}\n" for v in g.vertices))
    argv = [command, graph] + ([orientation] if command == "verify" else [])
    oks = _count_calls(monkeypatch, prescription_ok)
    code, out, err = run(capsys, *argv, "--p", str(pfile))
    assert code == 1 and not oks
    if command == "verify":
        assert out.strip() == "invalid" and err == ""
    else:
        assert out == "" and "no valid orientation" in err


# ------------------------------------------------------- cuts/faces/check


def test_cuts_report_format(ce_file, capsys):
    code, out, _ = run(capsys, "cuts", ce_file, "--max", "5", "--min-side", "2")
    assert code == 0
    for line in out.strip().splitlines():
        assert line.startswith("cut size=")
        assert " type=" in line and " side=" in line


def test_cuts_without_a_face_line_print_type_dash(tmp_path, capsys):
    # with no specified face there is no boundary to classify a cut against
    g = cycle_graph(6)
    g.specified = []
    path = tmp_path / "c6.pgr"
    write_graph(path, g)
    code, out, _ = run(capsys, "cuts", str(path), "--max", "2")
    lines = out.splitlines()
    assert code == 0 and lines
    assert all(" type=- " in line for line in lines)
    assert "cut size=2 type=- side=0,1" in lines


def test_cuts_over_search_budget_exit2(tmp_path, capsys):
    path = tmp_path / "c30.pgr"
    write_graph(path, cycle_graph(30))
    code, out, err = run(capsys, "cuts", str(path), "--max", "7")
    assert code == 2
    assert out == ""
    assert err.startswith("refused:") and "Traceback" not in err


def test_cuts_on_b201_finish_under_budget(tmp_path, capsys):
    # its only cuts of size <= 5 are the ones around single vertices
    path = tmp_path / "b201.pgr"
    write_graph(path, gen_circulant_b(201))
    code, out, err = run(capsys, "cuts", str(path), "--max", "5", "--min-side", "2")
    assert (code, out, err) == (0, "", "")


def test_faces_report(b7_file, capsys):
    code, out, _ = run(capsys, "faces", b7_file)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "chi 1"
    assert sum(1 for l in lines if l.startswith("face ")) == 8  # E-V+1 faces
    assert any("specified" in l for l in lines)


def test_faces_on_a_disconnected_graph_prints_no_chi(tmp_path, capsys):
    # an isolated vertex is a sphere with one face, listed as an empty walk
    triangle_and_lone = cycle_graph(3)
    triangle_and_lone.rotation[3] = []
    lone_pair = EmbeddedGraph()
    lone_pair.rotation = {0: [], 1: []}
    cases = {  # graph, face lines, specified faces
        "two": (two_triangles(), 4, 1),
        "triangle+lone": (triangle_and_lone, 3, 1),
        "lone-pair": (lone_pair, 2, 0),
    }
    for name, (g, faces, specified) in cases.items():
        path = tmp_path / f"{name}.pgr"
        write_graph(path, g)
        code, out, _ = run(capsys, "faces", str(path))
        assert code == 0, name
        lines = out.strip().splitlines()
        assert len(lines) == faces and all(l.startswith("face ") for l in lines), name
        assert sum("specified" in l for l in lines) == specified, name


def test_faces_on_one_vertex_prints_chi_2(tmp_path, capsys):
    lone = EmbeddedGraph()
    lone.rotation = {0: []}
    path = tmp_path / "lone.pgr"
    write_graph(path, lone)
    code, out, _ = run(capsys, "faces", str(path))
    assert code == 0
    assert out.splitlines() == ["chi 2", "face 0 length=0 walk="]


def test_faces_searches_connectivity_once(b7_file, tmp_path, monkeypatch, capsys):
    calls = []
    real = EmbeddedGraph.is_connected

    def counted(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(EmbeddedGraph, "is_connected", counted)
    two = tmp_path / "two.pgr"
    write_graph(two, two_triangles())
    for path in (b7_file, str(two)):
        calls.clear()
        assert run(capsys, "faces", path)[0] == 0
        assert len(calls) == 1, path


def test_faces_walks_each_face_once(b7_file, monkeypatch, capsys):
    # 2|E| face steps trace every face, and chi is read off them; only the
    # specified faces are walked again, to find which of them the anchors
    # name (the Euler count walked all 2|E| states again)
    g = gen_circulant_b(7)
    specified = sum(specified_walk(g, i).length for i in range(len(g.specified)))
    steps = _count_calls(monkeypatch, embedding._face_step)
    assert run(capsys, "faces", b7_file)[0] == 0
    assert len(steps) == 2 * len(g.edges) + specified


def test_check_class_pass(b7_file, tmp_path, capsys):
    g = gen_circulant_b(7)
    gfile = tmp_path / "g.pgr"
    write_graph(gfile, g, {v: 0 for v in g.vertices})
    code, out, _ = run(capsys, "check", str(gfile), "--class", "pt")
    assert code == 0
    assert "holds=true" in out


def test_check_class_fail_lists_violations(ce_file, capsys):
    code, out, _ = run(capsys, "check", ce_file, "--class", "pt")
    assert code == 1
    lines = out.strip().splitlines()
    assert "holds=false" in lines[0]
    assert any(l.startswith("violation") for l in lines[1:])


def test_check_embedded_prescription_missing_a_vertex_exit3(tmp_path, capsys):
    # check resolves the file's prescription as solve, oracle and verify do
    g = gen_circulant_b(5)
    path = tmp_path / "b5p.pgr"
    write_graph(path, g, {v: 0 for v in sorted(g.vertices)[1:]})
    code, out, err = run(capsys, "check", str(path), "--class", "pt")
    assert code == 3 and out == ""
    assert err.startswith("input error: prescription misses vertex")


def test_check_without_prescription_uses_zeros(b7_file, capsys):
    code, out, _ = run(capsys, "check", b7_file, "--class", "pt")
    assert code == 0 and "holds=true" in out


# ------------------------------------------------------------------ corpus


def test_corpus_single_seed(capsys):
    code, out, _ = run(capsys, "corpus", "--seeds", "7")
    assert code == 0
    assert [l.split()[:2] for l in out.splitlines()] == [["seed", "7"]]


def test_corpus_reports_a_seed_the_generator_gives_up_on(capsys, monkeypatch):
    monkeypatch.setattr(families, "_RANDOM_PT_ATTEMPTS", 0)
    code, out, _ = run(capsys, "corpus", "--seeds", "3")
    assert code == 0
    assert out == "seed 3 error=no instance passed the class filter in 0 attempts (seed 3)\n"


# sha256 of `crossflow corpus --seeds 0..399 --max-vertices 12`: the
# generator's stream and every solve's outcome and step count
CORPUS_BYTES_SHA256 = "c95280886d7a429aa79b34218671dc6bedb1c21e301a0d3e6ccd480d28bb9f93"


def test_corpus_bytes_are_pinned(tmp_path):
    out = tmp_path / "corpus.txt"
    assert main(["corpus", "--seeds", "0..399", "--max-vertices", "12", "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CORPUS_BYTES_SHA256


def test_corpus_batch(capsys):
    code, out, _ = run(capsys, "corpus", "--seeds", "0..4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all(l.startswith("seed ") for l in lines)
    assert all("outcome=" in l or "error=" in l for l in lines)


# ------------------------------------------------------------- bad inputs


def test_missing_file_exit3(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent/x.pgr")
    assert code == 3


def test_malformed_graph_exit3(tmp_path, capsys):
    path = tmp_path / "bad.pgr"
    path.write_text("pgr 1\nvertex 0\nedge 0 0 7 +1\n")
    code, _, err = run(capsys, "faces", str(path))
    assert code == 3
    assert err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{bad}"],
        ["faces", "{bad}"],
        ["cuts", "{bad}"],
        ["check", "{bad}", "--class", "pt"],
        ["solve", "{good}", "--p", "{bad}"],
        ["verify", "{good}", "{bad}", "--p", "random"],
    ],
)
def test_non_utf8_input_file_exit3(b7_file, tmp_path, capsys, argv):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("p 0 1  # r\xe9sidu\n".encode("latin-1"))
    argv = [a.format(bad=bad, good=b7_file) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == f"input error: cannot read {bad}: not UTF-8 text\n"


@pytest.mark.parametrize("command", ["solve", "oracle", "verify"])
def test_negative_random_seed_exit3(b7_file, tmp_path, capsys, command):
    orientation = tmp_path / "o.txt"
    orientation.write_text("")
    argv = [command, b7_file] + ([str(orientation)] if command == "verify" else [])
    code, out, err = run(capsys, *argv, "--p", "random", "--seed", "-1")
    assert code == 3 and out == ""
    assert "seed must be >= 0, got -1" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "rpt", "-1"], "corpus seed must be >= 0, got -1"),
        (["corpus", "--seeds=-1..0"], "corpus seed must be >= 0, got -1"),
        (["gen", "rpt", "0", "--max-vertices", "4"], "supports 5..12 vertices"),
        (["corpus", "--seeds", "0..1", "--max-vertices", "4"], "supports 5..12 vertices"),
    ],
    ids=["gen-seed", "corpus-seed", "gen-size", "corpus-size"],
)
def test_corpus_arguments_out_of_range_exit3(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("input error:") and message in err


@pytest.mark.parametrize(
    "option, message",
    [
        (["--max", "-1"], "cut size must be >= 0, got -1"),
        (["--min-side", "-2"], "side order must be >= 0, got -2"),
        (["--max", "two"], "expected an integer, got 'two'"),
    ],
    ids=["max", "min-side", "not-integer"],
)
def test_cuts_negative_arguments_exit3(b7_file, capsys, option, message):
    code, out, err = run(capsys, "cuts", b7_file, *option)
    assert code == 3 and out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "a", "6"], "input error: family index must be odd and >= 5, got 6"),
        (["corpus", "--seeds", "5..3"], "argument --seeds: empty seed range"),
        (["corpus", "--seeds", "x"], "argument --seeds: expected N or A..B, got 'x'"),
        (["faces", "{empty}"], "input error: empty graph has no embedding"),
        (["gen", "b", "5", "-o", "{missing}"], "i/o error: [Errno 2] No such file or directory"),
    ],
    ids=["gen-a", "seeds-empty", "seeds-text", "faces-empty", "output-dir"],
)
def test_bad_arguments_exit3(tmp_path, capsys, argv, message):
    empty = tmp_path / "empty.pgr"
    empty.write_text("pgr 1\n")
    missing = tmp_path / "no-such-dir" / "g.pgr"
    argv = [a.format(empty=empty, missing=missing) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert message in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("0\n", "p.txt: line 1: p takes a vertex and a residue"),
        ("p 0 0\n1 one\n", "p.txt: line 2: residue must be an integer, got 'one'"),
        ("0 0\np 0 1\n", "p.txt: line 2: duplicate prescription for vertex 0"),
        ("# none here\n", "p.txt: no prescription entries"),
    ],
    ids=["shape", "integers", "duplicate", "empty"],
)
def test_prescription_file_syntax_exit3(b7_file, tmp_path, capsys, text, message):
    pfile = tmp_path / "p.txt"
    pfile.write_text(text)
    code, out, err = run(capsys, "solve", b7_file, "--p", str(pfile))
    assert code == 3 and out == ""
    assert err.startswith("input error: ") and err.rstrip().endswith(message)


def test_malformed_orientation_file_is_named(b7_file, tmp_path, capsys):
    ofile = tmp_path / "o.txt"
    ofile.write_text("0 1\n0 2\n")
    code, out, err = run(capsys, "verify", b7_file, str(ofile), "--p", "random")
    assert code == 3 and out == ""
    assert err == f"input error: {ofile}: line 2: duplicate direction for edge 0\n"


def test_prescription_residue_refused_at_parse(b7_file, tmp_path, capsys):
    # p 0 5 names one vertex of seven: it is refused for its residue, by
    # file and line, before any vertex is found missing
    pfile = tmp_path / "p.txt"
    pfile.write_text("# residues\np 0 5\n")
    code, out, err = run(capsys, "solve", b7_file, "--p", str(pfile))
    assert code == 3 and out == ""
    assert err == f"input error: {pfile}: line 2: residue must be -1, 0 or 1, got 5\n"


def test_byte_order_mark_is_skipped(tmp_path, capsys):
    path = tmp_path / "b7.pgr"
    assert run(capsys, "gen", "b", "7", "-o", str(path))[0] == 0
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    code, out, err = run(capsys, "solve", str(path), "--p", "random")
    assert code == 0 and out and err == ""
    assert read_graph(path) == (gen_circulant_b(7), None)


def test_chain_too_deep_is_refused(b7_file, capsys, monkeypatch):
    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(solver_module, "_solve_inner", too_deep)
    code, out, err = run(capsys, "solve", b7_file, "--p", "random")
    assert code == 2 and out == ""
    assert err.startswith("refused: the reduction chain is deeper than the recursion limit")
    code, out, _ = run(capsys, "corpus", "--seeds", "0..1")
    assert code == 0 and out.count("outcome=refused") == 2


def test_unknown_subcommand_exit3(capsys):
    code = main(["frobnicate"])
    assert code == 3


def test_help_exits_zero(capsys):
    code = main(["--help"])
    assert code == 0


def test_cli_starts_without_numpy():
    # only the seeded generators (gen rpt, corpus, --p random) load numpy
    src = str(Path(crossflow.__file__).parents[1])
    probe = "import sys, crossflow.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "False\n"
