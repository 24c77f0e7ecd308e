"""The hybrid solver: strategy selection, reduction traces, replay."""

import hashlib

import pytest

from conftest import triangle_with_loop
from crossflow import cuts, embedding
from crossflow import solver as solver_module
from crossflow.families import (
    gen_a,
    gen_circulant_b,
    gen_counterexample,
    gen_random_pt,
)
from crossflow.orient import (
    OracleBoundError,
    is_valid_orientation,
    oracle_solve,
    random_prescription,
)
from crossflow.pgr import serialize_orientation
from crossflow.solver import (
    STEP_KINDS,
    ReductionStep,
    ReductionTrace,
    TraceError,
    detect_family,
    parse_trace,
    replay,
    serialize_trace,
    solve,
)


def test_step_kind_vocabulary():
    assert STEP_KINDS == {
        "ContractSide",
        "TransferOrientation",
        "LiftPair",
        "OrientDeleteVertex",
        "DeleteBoundaryEdge",
        "PlanarizeChord",
        "SplitBoundaryVertex",
        "OracleCall",
    }


# ------------------------------------------------------- family detection


def test_detects_b7():
    g = gen_circulant_b(7)
    hit = detect_family(g)
    assert hit is not None
    spec, posmap = hit
    assert spec.kind == "B" and spec.parameter == 7


def test_detects_a9_with_t():
    g = gen_a(9)
    hit = detect_family(g)
    assert hit is not None
    spec, posmap = hit
    assert spec.kind == "A" and spec.parameter == 9
    assert posmap[0] == 0


def test_detection_survives_relabelling():
    g = gen_circulant_b(7)
    shift = {v: (v * 3) % 7 + 20 for v in g.vertices}
    h = g.copy()
    h.edges = {e: (shift[u], shift[v]) for e, (u, v) in g.edges.items()}
    h.rotation = {shift[v]: list(r) for v, r in g.rotation.items()}
    h.labels = {}
    h.validate()
    hit = detect_family(h)
    assert hit is not None and hit[0].kind == "B"


def test_detect_family_walks_the_face_once(monkeypatch):
    walks = []
    walk_from = embedding._walk_from

    def counted(g, start):
        walks.append(start)
        return walk_from(g, start)

    monkeypatch.setattr(embedding, "_walk_from", counted)
    for g in (gen_circulant_b(401), gen_a(401)):
        walks.clear()
        assert detect_family(g) is not None
        assert len(walks) == 1


def test_no_detection_on_counterexample():
    g, p, dspec = gen_counterexample(0)
    assert detect_family(g) is None


# ------------------------------------------------------------------ solve


def test_solve_b_family_greedy_trace():
    g = gen_circulant_b(7)
    p = random_prescription(g, 4)
    o, trace = solve(g, p)
    assert o is not None and is_valid_orientation(g, p, o)
    assert trace.outcome == "valid"
    kinds = {s.kind for s in trace.steps}
    assert kinds == {"LiftPair", "OrientDeleteVertex"}


def test_solve_a_family():
    g = gen_a(9)
    p = random_prescription(g, 2)
    o, trace = solve(g, p)
    assert o is not None and is_valid_orientation(g, p, o)


def test_solve_counterexample_proves_none():
    g, p, dspec = gen_counterexample(0)
    o, trace = solve(g, p)
    assert o is None
    assert trace.outcome == "none"
    assert trace.steps[-1].kind == "OracleCall"


def test_solve_cut_reduction_path():
    # corpus seed 0 reduces through a robust cut before the oracle
    g, p = gen_random_pt(0, 9)
    o, trace = solve(g, p)
    kinds = [s.kind for s in trace.steps]
    assert "ContractSide" in kinds and "TransferOrientation" in kinds
    assert o is not None and is_valid_orientation(g, p, o)


def test_solve_split_path():
    g, p = gen_random_pt(1, 9)
    o, trace = solve(g, p)
    assert "SplitBoundaryVertex" in [s.kind for s in trace.steps]
    assert o is not None and is_valid_orientation(g, p, o)


def test_solve_invalid_prescription_is_none_without_steps():
    g = gen_circulant_b(5)
    p = {v: 0 for v in g.vertices}
    p[1] = 1  # total 1, not a prescription
    o, trace = solve(g, p)
    assert o is None and trace.outcome == "none" and trace.steps == []


def _spy_oracle(monkeypatch):
    """Record what each oracle call in the solver returned or raised."""
    seen = []

    def spy(g, p):
        try:
            o = oracle_solve(g, p)
        except OracleBoundError as exc:
            seen.append(exc)
            raise
        seen.append(o)
        return o

    monkeypatch.setattr(solver_module, "oracle_solve", spy)
    return seen


def test_solve_reads_witness_in_one_oracle_call():
    # 19 edges, solved by one top-level OracleCall over all of them
    g, p = gen_random_pt(5, 9)
    assert len(g.edges) == 19 and not g.darcs
    o, trace = solve(g, p)
    assert is_valid_orientation(g, p, o)
    assert [(st.kind, st.arguments) for st in trace.steps] == [("OracleCall", (19,))]


def test_counterexample_above_old_ceiling_decided_none(monkeypatch):
    # CE3 has 30 vertices; its two 5-cuts, {0, 1} and {0, 16}, have the
    # protected vertex 0 on one side and the directed vertex on the other,
    # so neither side may be contracted, and the frontier DP proves none
    # over all 56 free edges
    g, p, dspec = gen_counterexample(3)
    assert len(g.vertices) == 30
    seen = _spy_oracle(monkeypatch)
    o, trace = solve(g, p)
    assert o is None and trace.outcome == "none"
    assert [(st.kind, st.arguments) for st in trace.steps] == [("OracleCall", (56,))]
    assert seen == [None]


def test_oracle_call_counts_free_edges_without_loops():
    # edge 0 is forced out of vertex 0 and edge 3 is a loop: two free edges
    o, trace = solve(triangle_with_loop(), {0: 0, 1: 0, 2: 0})
    assert o is not None
    assert [(st.kind, st.arguments) for st in trace.steps] == [("OracleCall", (2,))]


def test_cut_search_over_budget_is_no_usable_cut(monkeypatch):
    g, p = gen_random_pt(0, 9)  # reduces through a cut at the top level
    assert solver_module._pick_cut_side(g) is not None
    monkeypatch.setattr(cuts, "_CUT_STEP_BUDGET", 10)
    with pytest.raises(cuts.CutBudgetError):
        cuts.smallest_bond_side(g, 5, {g.tvertex})
    assert solver_module._pick_cut_side(g) is None


def test_counterexample_family_decided_none():
    for k in range(8):
        g, p, dspec = gen_counterexample(k)
        o, trace = solve(g, p)
        assert o is None and trace.outcome == "none", f"CE{k}"
        assert [s.kind for s in trace.steps] == ["OracleCall"], f"CE{k}"


def test_solve_agrees_with_oracle_on_corpus():
    for seed in range(60):
        g, p = gen_random_pt(seed, 9)
        got, _ = solve(g, p)
        want = oracle_solve(g, p)
        assert (got is None) == (want is None), f"seed {seed}"


def test_solve_leaves_input_untouched():
    g = gen_circulant_b(7)
    key = g._key()
    solve(g, random_prescription(g, 0))
    assert g._key() == key


# ------------------------------------------------------------------ traces


def test_trace_roundtrip():
    g, p = gen_random_pt(0, 9)
    _, trace = solve(g, p)
    again = parse_trace(serialize_trace(trace))
    assert again == trace


def test_trace_roundtrip_none_outcome():
    g, p, dspec = gen_counterexample(0)
    _, trace = solve(g, p)
    again = parse_trace(serialize_trace(trace))
    assert again.outcome == "none"
    assert again == trace


def test_trace_records_threshold_and_prescription():
    # the threshold line is fixed at 28, and any value in it parses and is
    # ignored, so traces written with another threshold still replay
    g, p = gen_random_pt(3, 9)
    _, trace = solve(g, p)
    assert trace.prescription == p
    text = serialize_trace(trace)
    assert text.splitlines()[1] == "threshold 28"
    old = parse_trace(text.replace("threshold 28", "threshold 25"))
    assert old == trace
    assert replay(g, old).matches


def test_parse_rejects_unknown_kind():
    g, p = gen_random_pt(0, 9)
    _, trace = solve(g, p)
    text = serialize_trace(trace).replace("OracleCall", "FrobnicateCall")
    with pytest.raises(TraceError):
        parse_trace(text)


def test_parse_rejects_out_of_order_steps():
    text = (
        "trace 1\nthreshold 28\np 0 0\np 1 0\np 2 0\n"
        "step 1 OracleCall args=3 digest=abc123\noutcome valid\n"
    )
    with pytest.raises(TraceError) as exc:
        parse_trace(text)
    assert exc.value.line == 6


def test_parse_rejects_missing_outcome():
    with pytest.raises(TraceError):
        parse_trace("trace 1\nthreshold 28\np 0 0\n")


def test_step_kinds_always_in_vocabulary():
    for seed in range(30):
        g, p = gen_random_pt(seed, 9)
        _, trace = solve(g, p)
        assert all(s.kind in STEP_KINDS for s in trace.steps)


# ------------------------------------------------------------------ replay


def test_replay_fresh_trace_matches():
    g, p = gen_random_pt(0, 9)
    _, trace = solve(g, p)
    rep = replay(g, trace)
    assert bool(rep) and rep.matches


def test_replay_counterexample_trace():
    g, p, dspec = gen_counterexample(0)
    _, trace = solve(g, p)
    assert replay(g, trace).matches


def test_replay_flags_wrong_graph():
    g, p = gen_random_pt(0, 9)
    _, trace = solve(g, p)
    other, _ = gen_random_pt(4, 9)
    rep = replay(other, trace)
    assert not rep.matches
    assert rep.reason


def test_replay_flags_tampered_digest():
    g, p = gen_random_pt(0, 9)
    _, trace = solve(g, p)
    bad_steps = list(trace.steps)
    s = bad_steps[0]
    bad_steps[0] = ReductionStep(s.kind, s.arguments, "0" * 16)
    bad = ReductionTrace(
        steps=tuple(bad_steps),
        outcome=trace.outcome,
        prescription=trace.prescription,
    )
    rep = replay(g, bad)
    assert not rep.matches
    assert rep.mismatch_index == 0


# ------------------------------------------------------------ golden traces

GOLDEN_TRACE_DIGEST = "e87e80da0583b4c8654a045ee626aa1a686d4b714877786d26b81a7d22d0ee28"


def _golden_instances():
    for seed in range(100):
        g, p = gen_random_pt(seed, 12)
        yield f"rpt{seed}", g, p
    for i in (21, 51):
        for name, g in ((f"B{i}", gen_circulant_b(i)), (f"A{i}", gen_a(i))):
            for seed in range(3):
                yield f"{name}/p{seed}", g, random_prescription(g, seed)
    g, p, _ = gen_counterexample(0)
    yield "CE0", g, p


def test_golden_traces_replay_byte_for_byte():
    # Any change in the steps, their arguments, the outcome or the
    # orientation of a golden instance shows here.
    h = hashlib.sha256()
    for key, g, p in _golden_instances():
        o, trace = solve(g, p)
        h.update(f"{key}\n{serialize_trace(trace)}".encode())
        if o is not None:
            h.update(serialize_orientation(o.tails()).encode())
    assert h.hexdigest() == GOLDEN_TRACE_DIGEST
