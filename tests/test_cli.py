"""End-to-end CLI behaviour through main(argv): outputs and exit codes.

Exit code contract: 0 solved/valid, 1 proven none/invalid/class fails,
2 engine refusal, 3 bad input.
"""

import time

import pytest

from conftest import build_graph, cycle_graph, triangle_with_loop
from crossflow.cli import main
from crossflow.families import gen_circulant_b, gen_counterexample, gen_random_pt
from crossflow.pgr import parse_graph, read_graph, serialize_graph, write_graph
from crossflow.solver import parse_trace, replay


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
    "range": "residue must be -1, 0 or 1, got 5",
}


@pytest.mark.parametrize("defect", sorted(_DEFECT_MESSAGES))
@pytest.mark.parametrize("command", ["solve", "oracle", "verify"])
def test_malformed_prescription_file_exit3(tmp_path, capsys, command, defect):
    _, graph, orientation, files = _b5_prescription_cases(tmp_path)
    argv = [command, graph] + ([orientation] if command == "verify" else [])
    code, out, err = run(capsys, *argv, "--p", files[defect])
    assert code == 3 and out == ""
    assert err.startswith(f"input error: {_DEFECT_MESSAGES[defect]}")


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
def test_prescription_total_off_is_a_definite_negative(tmp_path, capsys, command):
    # well formed, but its total is 1 mod 3: no orientation can meet it
    g, graph, orientation, _ = _b5_prescription_cases(tmp_path)
    pfile = tmp_path / "p.txt"
    pfile.write_text("".join(f"{v} {int(v == min(g.vertices))}\n" for v in g.vertices))
    argv = [command, graph] + ([orientation] if command == "verify" else [])
    code, out, err = run(capsys, *argv, "--p", str(pfile))
    assert code == 1
    if command == "verify":
        assert out.strip() == "invalid"
    else:
        assert out == "" and "no valid orientation" in err


# ------------------------------------------------------- cuts/faces/check


def test_cuts_report_format(ce_file, capsys):
    code, out, _ = run(capsys, "cuts", ce_file, "--max", "5", "--min-side", "2")
    assert code == 0
    for line in out.strip().splitlines():
        assert line.startswith("cut size=")
        assert " type=" in line and " side=" in line


def test_cuts_over_search_budget_exit2(tmp_path, capsys):
    path = tmp_path / "c30.pgr"
    write_graph(path, cycle_graph(30))
    code, out, err = run(capsys, "cuts", str(path), "--max", "7")
    assert code == 2
    assert out == ""
    assert err.startswith("refused:") and "Traceback" not in err


def test_faces_report(b7_file, capsys):
    code, out, _ = run(capsys, "faces", b7_file)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "chi 1"
    assert sum(1 for l in lines if l.startswith("face ")) == 8  # E-V+1 faces
    assert any("specified" in l for l in lines)


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


# ------------------------------------------------------------------ corpus


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


def test_unknown_subcommand_exit3(capsys):
    code = main(["frobnicate"])
    assert code == 3


def test_help_exits_zero(capsys):
    code = main(["--help"])
    assert code == 0
