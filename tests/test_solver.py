"""The hybrid solver: strategy selection, reduction traces, replay."""

import hashlib
import sys
from collections import Counter

import numpy as np
import pytest

from conftest import (
    _count_calls,
    _replace_everywhere,
    disjoint_union,
    names_the_cut_halves,
    names_the_halves,
    petal_graph,
    random_multigraph,
    triangle,
    triangle_with_loop,
    two_triangles,
)
from crossflow import cuts, embedding
from crossflow import orient as orient_module
from crossflow import solver as solver_module
from crossflow.families import (
    FamilySpec,
    _circulant_chords,
    circulant_schedule,
    disk_crosscap_graph,
    gen_a,
    gen_circulant_b,
    gen_counterexample,
    gen_random_pt,
)
from crossflow.orient import (
    OracleBoundError,
    OrientationError,
    ScheduleError,
    greedy_direct_and_delete,
    is_valid_orientation,
    oracle_solve,
    random_prescription,
)
from crossflow.pgr import PgrError, serialize_orientation
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


def _relabelled(g, seed):
    """g with its vertex ids permuted (seeded) and moved past 20."""
    perm = np.random.default_rng(seed).permutation(len(g.rotation)) + 20
    new = dict(zip(sorted(g.rotation), perm.tolist()))
    h = g.copy()
    h.edges = {e: (new[u], new[v]) for e, (u, v) in g.edges.items()}
    h.rotation = {new[v]: list(r) for v, r in g.rotation.items()}
    if g.tvertex is not None:
        h.tvertex = new[g.tvertex]
    h.validate()
    return h


def test_detection_survives_relabelling():
    # the schedule, read through the returned position map, solves the
    # relabelled graph
    for i in (5, 7, 21):
        for kind, g in (("B", gen_circulant_b(i)), ("A", gen_a(i))):
            h = _relabelled(g, i)
            hit = detect_family(h)
            assert hit is not None and hit[0] == FamilySpec(kind, i)
            lifts, order = circulant_schedule(h, i, kind == "A", hit[1])
            for seed in range(10):
                p = random_prescription(h, seed)
                o, _ = orient_module.greedy_direct_and_delete(h, p, lifts, order)
                assert is_valid_orientation(h, p, o), (kind, i, seed)


def _perturbed_circulants():
    """B_i and A_i with one change each: a chord end moved, a chord
    replaced by a copy of another, or A_i's protected vertex moved."""
    for i in (5, 7, 21):
        for subdivided in (False, True):
            cycle = list(range(1, i + 1)) + ([0] if subdivided else [])
            moved = list(_circulant_chords(i, subdivided))
            moved[0] = (1, (i - 1) // 2 + 3)
            parallel = list(_circulant_chords(i, subdivided))
            parallel[0] = parallel[1]
            for chords in (moved, parallel):
                g = disk_crosscap_graph(cycle, chords)
                g.tvertex = 0 if subdivided else None
                yield g
        g = gen_a(i)
        g.tvertex = 1
        yield g


def test_detect_family_walks_the_face_once(monkeypatch):
    # once on B_i and A_i, and not at all off 2|V| edges, counted first
    b7 = gen_circulant_b(7)
    corpus = [gen_random_pt(seed, 12)[0] for seed in range(20)]
    others = [embedding.delete_edge(b7, max(b7.edges))]
    others += [g for g in corpus if len(g.edges) != 2 * len(g.rotation)]
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
    walks.clear()
    assert all(detect_family(g) is None for g in others)
    assert len(others) > 10 and walks == []


def test_no_detection_on_counterexample():
    g, p, dspec = gen_counterexample(0)
    assert detect_family(g) is None


def test_no_detection_on_a_perturbed_circulant():
    # each keeps a specified face through every vertex once and 2|V|
    # edges, so only the chords tell it from B_i or A_i
    for g in _perturbed_circulants():
        walk = embedding.specified_walk(g)
        assert sorted(walk.tails) == g.vertices and len(g.edges) == 2 * len(g.rotation)
        assert detect_family(g) is None
        assert detect_family(_relabelled(g, 0)) is None


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


def test_solve_runs_circulant_schedules_through_the_greedy_engine(monkeypatch):
    calls = _count_calls(monkeypatch, orient_module.greedy_direct_and_delete)
    for g in (gen_circulant_b(7), gen_a(9)):
        calls.clear()
        _, trace = solve(g, random_prescription(g, 5))
        assert len(calls) == 1
        assert {st.kind for st in trace.steps} == {"LiftPair", "OrientDeleteVertex"}


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


def test_stage_three_tries_the_next_vertex_after_a_refused_split(monkeypatch):
    # petal_graph(0, 3) with its face through (0, 0), a chi = 1 face that
    # visits vertex 0 four times, specified: after three contractions the
    # split at vertex 0 is refused, and stage 3 goes on to vertex 8
    g = petal_graph(0, 3)
    g.specified = [(0, 0)]
    g.validate()
    cut = solver_module._split_cut
    tried = []

    def recorded(h, v, walk, chi):
        try:
            found = cut(h, v, walk, chi)
        except embedding.EmbeddingError:
            tried.append((v, "refused"))
            raise
        tried.append((v, "accepted"))
        return found

    monkeypatch.setattr(solver_module, "_split_cut", recorded)
    p = {v: 0 for v in g.vertices}
    o, trace = solve(g, p)
    assert tried[:2] == [(0, "refused"), (8, "accepted")]
    splits = [s.arguments for s in trace.steps if s.kind == "SplitBoundaryVertex"]
    assert (0,) not in splits and splits[0] == (8,)
    assert o is not None and is_valid_orientation(g, p, o)
    monkeypatch.undo()
    assert replay(g, trace).matches


def test_solve_invalid_prescription_is_none_without_steps():
    g = gen_circulant_b(5)
    p = {v: 0 for v in g.vertices}
    p[1] = 1  # total 1, not a prescription
    o, trace = solve(g, p)
    assert o is None and trace.outcome == "none" and trace.steps == []


_MALFORMED = {  # B5's vertices are 1..5
    "missing": ({1: 0, 2: 0, 3: 0, 4: 0}, "prescription misses vertex 5"),
    "unknown": ({v: 0 for v in range(1, 7)}, "prescription names unknown vertex 6"),
    "residue": ({1: 2, 2: 0, 3: 0, 4: 0, 5: 1}, "residue must be -1, 0 or 1, got 2 at vertex 1"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_solve_and_oracle_reject_a_malformed_prescription(case):
    # each total is 0 mod 3, so answering "none" here would be unsound;
    # the validity check and the greedy engine read the same rule
    p, message = _MALFORMED[case]
    g = gen_circulant_b(5)
    o = oracle_solve(g, dict.fromkeys(g.vertices, 0))
    lifts, order = circulant_schedule(g, 5, with_subdivision=False)
    for call in (
        lambda: solve(g, p),
        lambda: oracle_solve(g, p),
        lambda: is_valid_orientation(g, p, o),
        lambda: greedy_direct_and_delete(g, p, lifts, order),
    ):
        with pytest.raises(OrientationError, match=f"^{message}$"):
            call()


def test_greedy_fails_a_total_off_zero_as_a_schedule():
    g = gen_circulant_b(5)
    lifts, order = circulant_schedule(g, 5, with_subdivision=False)
    p = dict.fromkeys(g.vertices, 0)
    p[1] = 1
    with pytest.raises(ScheduleError):
        greedy_direct_and_delete(g, p, lifts, order)


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


def test_solve_two_triangles_matches_oracle():
    # a disconnected graph has no bond, as a bond cuts at least one edge,
    # and no split applies; solve asks the oracle
    g = two_triangles()
    valid = {v: 0 for v in g.rotation}
    none = {**valid, 0: 1, 3: -1}  # total 0, but 1 and -1 per component
    for p, outcome in ((valid, "valid"), (none, "none")):
        o, trace = solve(g, p)
        assert trace.outcome == outcome
        assert (oracle_solve(g, p) is None) == (o is None)
        assert [s.kind for s in trace.steps] == ["OracleCall"]


def test_solve_disconnected_with_a_doubled_face_vertex(monkeypatch):
    # the specified face visits every vertex of the one-sided 8-cycle twice,
    # but the graph has no chi, so stage 3 tries no split (each one failed
    # its cut check: 8 split calls and 144 face steps per solve before);
    # the oracle answers, as it would alone
    loose = triangle()
    loose.specified = []
    g = disjoint_union(random_multigraph(3), loose)
    assert max(Counter(embedding.specified_walk(g).tails).values()) == 2
    splits = _count_calls(monkeypatch, embedding.split_doubled_boundary_vertex)
    for seed in range(6):
        p = random_prescription(g, seed)
        got, trace = solve(g, p)
        want = oracle_solve(g, p)
        assert [s.kind for s in trace.steps] == ["OracleCall"]
        assert (got is None) == (want is None)
        assert got is None or got.tails() == want.tails()
    assert not splits


def test_solve_agrees_with_oracle_on_two_components():
    outcomes = Counter()
    for seed in range(30):
        a = random_multigraph(seed, max_vertices=6)
        b = random_multigraph(seed + 100, max_vertices=6)
        for g in (disjoint_union(a, b), disjoint_union(b, a)):
            for ps in range(2):
                p = random_prescription(g, ps)
                got, trace = solve(g, p)
                want = oracle_solve(g, p)
                assert (got is None) == (want is None), f"seed {seed}"
                outcomes[trace.outcome] += 1
    assert min(outcomes["valid"], outcomes["none"]) >= 10


def test_solve_leaves_input_untouched():
    # solve works on the caller's graph itself, so every operation on its
    # path must return a new graph
    cases = list(_golden_instances())
    for seed in range(300):
        g = random_multigraph(seed)
        cases.append((f"rm{seed}", g, random_prescription(g, seed)))
    for label, g, p in cases:
        key = g._key()
        solve(g, p)
        assert g._key() == key, label


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


_STEP = "step 0 OracleCall args=3 digest=abc123"

# malformed trace text -> the message parse_trace raises, with its line
_TRACE_ERRORS = {
    "non-integer": (
        "trace 1\np 0 x\noutcome valid\n",
        "line 2: residue must be an integer, got 'x'",
    ),
    "header": ("trace 2\noutcome valid\n", "line 1: expected header 'trace 1'"),
    "duplicate p": (
        "trace 1\np 0 1\np 0 -1\noutcome valid\n",
        "line 3: duplicate prescription for vertex 0",
    ),
    "step line": (
        "trace 1\n" + _STEP.replace("args=", "argv=") + "\noutcome valid\n",
        "line 2: malformed step line",
    ),
    "duplicate outcome": (
        "trace 1\noutcome valid\noutcome none\n",
        "line 3: duplicate outcome line",
    ),
    "unrecognised": ("trace 1\noutcome maybe\n", "line 2: unrecognized line: outcome maybe"),
    "empty": ("# only a comment\n\n", "empty trace"),
    "residue": ("trace 1\np 0 7\noutcome valid\n", "line 2: residue must be -1, 0 or 1, got 7"),
}


@pytest.mark.parametrize("case", sorted(_TRACE_ERRORS))
def test_parse_trace_errors(case):
    text, message = _TRACE_ERRORS[case]
    with pytest.raises(TraceError) as exc:
        parse_trace(text)
    assert str(exc.value) == message


def test_trace_error_is_a_pgr_error():
    # one line-numbered error class for every text format
    with pytest.raises(PgrError) as exc:
        parse_trace("trace 1\np 0 -2\noutcome none\n")
    assert isinstance(exc.value, TraceError) and exc.value.line == 2


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_chain_deeper_than_the_stack_is_refused():
    # under a recursion limit a few frames above this one, the corpus's
    # reduction chains outgrow the stack: solve refuses them, naming the
    # limit, and lets no RecursionError out
    cases = [gen_random_pt(seed, 12) for seed in range(20)]
    depth, limit = _stack_depth(), sys.getrecursionlimit()
    refusals = Counter()
    for extra in range(10, 31):
        for g, p in cases:
            sys.setrecursionlimit(depth + extra)
            try:
                solve(g, p)
            except solver_module.SolverRefusal as exc:
                refusals[extra, str(exc).partition(" (")[0]] += 1
            finally:
                sys.setrecursionlimit(limit)
    deep = "the reduction chain is deeper than the recursion limit"
    assert {why for _, why in refusals} == {deep}
    assert refusals[10, deep] > refusals[30, deep]


def test_parse_trace_skips_comments():
    text = f"# a trace\ntrace 1  # header\n\np 0 0 # r\n{_STEP}\n# done\noutcome none\n"
    trace = parse_trace(text)
    assert trace.prescription == {0: 0} and trace.outcome == "none"
    assert trace.steps == [ReductionStep("OracleCall", (3,), "abc123")]


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


def test_replay_reports_a_failed_re_solve():
    # the trace's prescription misses vertices 2..5 of B5
    rep = replay(gen_circulant_b(5), ReductionTrace([], "none", {1: 0}))
    assert not rep.matches and rep.mismatch_index == 0
    assert rep.reason == "re-solve failed: prescription misses vertex 2"


def test_replay_reports_a_changed_outcome():
    g = gen_circulant_b(5)
    _, trace = solve(g, {v: 0 for v in g.vertices})
    assert trace.outcome == "valid"
    rep = replay(g, ReductionTrace(trace.steps, "none", trace.prescription))
    assert not rep.matches and rep.mismatch_index is None
    assert rep.reason == "outcome changed: recorded none, got valid"


def test_replay_reports_a_different_step_count():
    # the recorded steps agree with the re-solve's as far as they go
    g, p = gen_random_pt(0, 9)
    _, trace = solve(g, p)
    n = len(trace.steps)
    rep = replay(g, ReductionTrace(trace.steps[:-1], trace.outcome, trace.prescription))
    assert not rep.matches and rep.mismatch_index == n - 1
    assert rep.reason == f"recorded {n - 1} steps, re-solve took {n}"


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


def test_replay_flags_tampered_greedy_digest():
    g = gen_circulant_b(51)
    p = random_prescription(g, 3)
    _, trace = solve(g, p)
    for k in (0, len(trace.steps) // 2, len(trace.steps) - 1):
        bad_steps = list(trace.steps)
        s = bad_steps[k]
        assert s.kind in ("LiftPair", "OrientDeleteVertex")
        bad_steps[k] = ReductionStep(s.kind, s.arguments, "0" * 16)
        bad = ReductionTrace(bad_steps, trace.outcome, trace.prescription)
        rep = replay(g, bad)
        assert not rep.matches
        assert rep.mismatch_index == k


# ------------------------------------------------------- deferred digests

_GREEDY_KINDS = ("LiftPair", "OrientDeleteVertex")


def _count_hashing(monkeypatch) -> Counter:
    """Count the calls of orient._digest_of_lines, which hashes every step
    digest, and of orient._abstract_digest, which the non-greedy steps use."""
    calls = Counter()
    lines, abstract = orient_module._digest_of_lines, orient_module._abstract_digest

    def counted_lines(ls):
        calls["lines"] += 1
        return lines(ls)

    def counted_abstract(edges):
        calls["abstract"] += 1
        return abstract(edges)

    _replace_everywhere(monkeypatch, lines, counted_lines)
    _replace_everywhere(monkeypatch, abstract, counted_abstract)
    return calls


def _count_steps_made(monkeypatch) -> Counter:
    made = Counter()

    class Counted(ReductionStep):
        __slots__ = ()

        def __init__(self, *args):
            made["steps"] += 1
            super().__init__(*args)

    _replace_everywhere(monkeypatch, ReductionStep, Counted)
    return made


def _assert_hashed_once_on_read(trace, calls):
    """No digest is hashed until the trace is written; then each kept step's
    is hashed once, and a second write hashes nothing."""
    assert sum(calls.values()) == 0
    text = serialize_trace(trace)
    kept = len(trace.steps)
    greedy = sum(st.kind in _GREEDY_KINDS for st in trace.steps)
    assert calls == Counter({"lines": kept, "abstract": kept - greedy})
    assert serialize_trace(trace) == text
    assert calls == Counter({"lines": kept, "abstract": kept - greedy})


def test_solve_hashes_no_digest_until_the_trace_is_read(monkeypatch):
    b51 = gen_circulant_b(51)
    ce1, ce1_p, _ = gen_counterexample(1)
    instances = [(b51, random_prescription(b51, 3)), gen_random_pt(0, 12), (ce1, ce1_p)]
    calls = _count_hashing(monkeypatch)
    kinds = set()
    for g, p in instances:
        calls.clear()
        _, trace = solve(g, p)
        _assert_hashed_once_on_read(trace, calls)
        kinds |= {st.kind for st in trace.steps}
    assert kinds >= {
        "LiftPair",
        "OrientDeleteVertex",
        "ContractSide",
        "TransferOrientation",
        "SplitBoundaryVertex",
        "OracleCall",
    }


def test_abandoned_cut_branch_is_never_hashed(monkeypatch):
    # refuse every remainder pass, so that each _reduce_by_cut drops the
    # steps it has made and the level falls through to the split or oracle
    inner = solver_module._solve_inner

    def refuse_remainders(g, p, top):
        if g.dvertex is not None:
            raise solver_module.SolverRefusal("remainder refused")
        return inner(g, p, top)

    monkeypatch.setattr(solver_module, "_solve_inner", refuse_remainders)
    made = _count_steps_made(monkeypatch)
    calls = _count_hashing(monkeypatch)
    g, p = gen_random_pt(0, 12)
    _, trace = solve(g, p)
    assert made["steps"] > len(trace.steps)
    assert "TransferOrientation" not in {st.kind for st in trace.steps}
    _assert_hashed_once_on_read(trace, calls)


def test_failed_schedule_is_never_hashed(monkeypatch):
    # a schedule whose last vertex is missing fails after every other step
    # was recorded; the solve falls through to the other strategies
    schedule = solver_module.circulant_schedule

    def broken(*args):
        lifts, order = schedule(*args)
        return lifts, order + [10**6]

    monkeypatch.setattr(solver_module, "circulant_schedule", broken)
    made = _count_steps_made(monkeypatch)
    calls = _count_hashing(monkeypatch)
    g = gen_circulant_b(21)
    p = random_prescription(g, 3)
    o, trace = solve(g, p)
    assert o is not None
    assert made["steps"] == len(trace.steps)
    assert not {st.kind for st in trace.steps} & set(_GREEDY_KINDS)
    _assert_hashed_once_on_read(trace, calls)


class _EagerStep(ReductionStep):
    """A step that hashes its digest when it is made."""

    __slots__ = ()

    def __init__(self, *args):
        super().__init__(*args)
        self.result_digest


def _digest_instances():
    for seed in range(400):
        yield gen_random_pt(seed, 12)
    for k in range(4):
        g, p, _ = gen_counterexample(k)
        yield g, p
    for i in (5, 7, 21, 51):
        for g in (gen_circulant_b(i), gen_a(i)):
            for seed in range(3):
                yield g.copy(), random_prescription(g, seed)


def test_deferred_digests_equal_eager_ones(monkeypatch):
    deferred = []
    for g, p in _digest_instances():
        _, trace = solve(g, p)
        # edit the input in place: the trace must not see it
        for e, (u, v) in list(g.edges.items()):
            g.edges[e] = (v, u)
        g.edges[g.next_edge_id()] = (u, u)
        deferred.append(serialize_trace(trace))
    _replace_everywhere(monkeypatch, ReductionStep, _EagerStep)
    eager = [serialize_trace(solve(g, p)[1]) for g, p in _digest_instances()]
    assert deferred == eager


# ------------------------------------------------------ carried face data


def _carried_face_data_instances():
    for seed in range(400):
        yield gen_random_pt(seed, 12)
    for k in range(8):
        g, p, _ = gen_counterexample(k)
        yield g, p
    for seed in range(600):  # no surface promise: any genus
        g = random_multigraph(seed)
        yield g, random_prescription(g, seed)


def _same_when_walked_here(fn, carried, fresh):
    """fn(*carried), after checking that fn(*fresh), which walks and counts
    the face data itself, gives an equal result or raises alike."""
    outcomes = []
    for args in (carried, fresh):
        try:
            outcomes.append((fn(*args), None))
        except Exception as exc:  # compared below, then raised again
            outcomes.append((None, exc))
    (got, exc), (again, exc_again) = outcomes
    assert got == again
    assert (type(exc), str(exc)) == (type(exc_again), str(exc_again))
    if exc is not None:
        raise exc
    return got


def test_carried_face_data_matches_a_fresh_count(monkeypatch):
    # Only the split's cut check and the split take face data: the walk
    # equals a fresh walk of the specified face, chi(g) = 1, never None
    # (splits are tried only on a chi = 1 input), and each gives the same
    # result when it counts chi itself (the split also walks the face).
    seen = Counter()

    def checked(fn, fresh_walk):
        def check(g, v, walk, chi):
            assert walk == embedding.specified_walk(g)
            if chi is None:
                seen["fallback"] += 1
            else:
                assert chi == embedding.euler_characteristic(g)
                seen[fn.__name__] += 1
            return _same_when_walked_here(fn, (g, v, walk, chi), (g, v, fresh_walk(g), None))

        return check

    cut, split = solver_module._split_cut, solver_module.split_doubled_boundary_vertex
    monkeypatch.setattr(solver_module, "_split_cut", checked(cut, embedding.specified_walk))
    monkeypatch.setattr(
        solver_module, "split_doubled_boundary_vertex", checked(split, lambda g: None)
    )
    for g, p in _carried_face_data_instances():
        try:
            solve(g, p)
        except (solver_module.SolverRefusal, embedding.EmbeddingError):
            pass
    assert seen["_split_cut"] > 1000 and seen["split_doubled_boundary_vertex"] > 0
    assert seen["fallback"] == 0


def test_solver_splits_only_projective_inputs(monkeypatch):
    # Stage 3 cuts the crosscap only when the input to solve has chi 1, the
    # split's domain: on random multigraphs of any genus every split the
    # check accepts, built or recorded, and every split call cuts a chi = 1
    # graph from a chi = 1 input, and the answers stand.
    split = solver_module.split_doubled_boundary_vertex
    cut = solver_module._split_cut
    top_chi, accepted = [], []

    def checked_split(g, v, walk, chi):
        assert embedding.euler_characteristic(g) == 1 and top_chi == [1], v
        return split(g, v, walk, chi)

    def checked_cut(g, v, walk, chi):
        found = cut(g, v, walk, chi)
        assert embedding.euler_characteristic(g) == 1 and top_chi == [1], v
        accepted.append(v)
        return found

    monkeypatch.setattr(solver_module, "split_doubled_boundary_vertex", checked_split)
    monkeypatch.setattr(solver_module, "_split_cut", checked_cut)
    outcomes = Counter()
    for seed in range(600):
        g = random_multigraph(seed)
        top_chi[:] = [embedding.euler_characteristic(g)]
        o, _ = solve(g, random_prescription(g, seed))
        outcomes["none" if o is None else "valid"] += 1
    assert outcomes == {"valid": 376, "none": 224}
    assert len(accepted) == 229


def test_solver_splits_name_the_two_halves(monkeypatch):
    # Every split the solver accepts on the corpus cuts a projective input,
    # and its two specified faces, built here, are the halves of the
    # input's one face.
    cut = solver_module._split_cut
    accepted = []

    def checked_cut(g, v, walk, chi):
        found = cut(g, v, walk, chi)
        assert embedding.euler_characteristic(g) == 1
        out = embedding.split_doubled_boundary_vertex(g, v, walk, chi)
        walk = embedding.specified_walk(g)
        assert names_the_halves(walk, out) and names_the_cut_halves(walk, v, out), v
        accepted.append(v)
        return found

    monkeypatch.setattr(solver_module, "_split_cut", checked_cut)
    for seed in range(100):
        solve(*gen_random_pt(seed, 12))
    assert len(accepted) > 300


def test_solver_reaches_the_public_face_operations(monkeypatch):
    # The solver calls each face operation by its one public name, so a
    # wrapper around that name (a solvebench span) sees every call.  The
    # corpus builds no split (each of its splits feeds only the oracle, see
    # solver); random multigraphs still build some.
    corpus = [gen_random_pt(seed, 12) for seed in range(20)]
    multigraphs = [random_multigraph(seed) for seed in range(20)]
    ops = (
        solver_module.detect_family,
        embedding.contract_subgraph,
        embedding.split_doubled_boundary_vertex,
    )
    calls = {fn.__name__: _count_calls(monkeypatch, fn) for fn in ops}
    for g, p in corpus:
        solve(g, p)
    assert calls["detect_family"] and calls["contract_subgraph"]
    assert calls["split_doubled_boundary_vertex"] == []
    for seed, g in enumerate(multigraphs):
        solve(g, random_prescription(g, seed))
    assert all(calls.values()), {name: len(c) for name, c in calls.items()}


def test_a_recorded_split_would_only_run_the_oracle(monkeypatch):
    # Stage 3 records, and does not build, a split at a level where stage 2
    # found no cut side.  Built here, each such split keeps g's edges,
    # forced arcs and protected vertex, has two specified faces and no cut
    # side, and its own level runs only the oracle, to g's answer (see
    # solver).  A stage change that breaks this premise fails here.
    real = solver_module._solve_inner
    split = solver_module.split_doubled_boundary_vertex
    built, recorded = [], []

    def building(g, v, walk, chi):
        built.append(g)
        return split(g, v, walk, chi)

    def level(g, p, top):
        o, steps = real(g, p, top)
        if steps and steps[0].kind == "SplitBoundaryVertex":
            if not any(b is g for b in built):
                recorded.append((g, p, top, o, steps))
        return o, steps

    monkeypatch.setattr(solver_module, "split_doubled_boundary_vertex", building)
    monkeypatch.setattr(solver_module, "_solve_inner", level)
    for seed in range(100):
        solve(*gen_random_pt(seed, 12))
    for seed in range(600):
        g = random_multigraph(seed)
        solve(g, random_prescription(g, seed))
    monkeypatch.undo()
    for g, p, top, o, steps in recorded:
        (v,) = steps[0].arguments
        flat = embedding.split_doubled_boundary_vertex(g, v, embedding.specified_walk(g), 1)
        kept = (g.edges, g.darcs, g.dvertex, g.tvertex)
        assert (flat.edges, flat.darcs, flat.dvertex, flat.tvertex) == kept
        assert len(flat.specified) == 2
        assert solver_module._pick_cut_side(flat) is None
        assert solver_module._solve_inner(flat, p, top) == (o, steps[1:])
        assert [st.kind for st in steps[1:]] == ["OracleCall"]
    assert len(recorded) > 500 and len(built) > 20


# _face_step calls while solving corpus seeds 0..99: a count, unlike wall
# time, shows a face walked again (14,823 while a face count walked both
# orbits of each face, 12,839 while the split walked its shared face twice
# to confirm the re-identification split it, 10,513 while it walked both
# halves again to anchor them, 9,018 while it walked its cut-open face to
# count F' and built that face's canonical walk to find the halves)
CORPUS_FACE_STEPS = 7_523


def test_corpus_face_work_is_bounded(monkeypatch):
    corpus = [gen_random_pt(seed, 12) for seed in range(100)]
    steps = _count_calls(monkeypatch, embedding._face_step)
    canonical = _count_calls(monkeypatch, embedding._canonical_walk)
    for g, p in corpus:
        solve(g, p)
    assert len(steps) <= CORPUS_FACE_STEPS
    assert canonical == []  # 328 while each split canonicalised its cut face


# EmbeddedGraph.is_connected calls while solving corpus seeds 0..99 (401
# while each split searched its cut-open graph, which chi(g) = 1 and F's
# one orbit pair at both copies of the vertex already make connected)
CORPUS_CONNECTIVITY_SEARCHES = 73


def test_corpus_connectivity_searches_are_bounded(monkeypatch):
    corpus = [gen_random_pt(seed, 12) for seed in range(100)]
    searches = _count_calls(monkeypatch, embedding.EmbeddedGraph.is_connected)
    for g, p in corpus:
        solve(g, p)
    assert 0 < len(searches) <= CORPUS_CONNECTIVITY_SEARCHES


# _balance_potentials calls while solving corpus seeds 0..99: only a built
# split re-signs (its plane output), and the corpus builds none, since each
# of its splits comes at a level with no cut side and feeds only the
# oracle (328 while every accepted split was built, see solver)
CORPUS_BALANCE_SEARCHES = 0


def test_corpus_balance_searches_are_bounded(monkeypatch):
    corpus = [gen_random_pt(seed, 12) for seed in range(100)]
    searches = _count_calls(monkeypatch, embedding._balance_potentials)
    resigns = _count_calls(monkeypatch, embedding._resign_all_positive)
    splits = _count_calls(monkeypatch, embedding.split_doubled_boundary_vertex)
    for g, p in corpus:
        solve(g, p)
    assert len(searches) == len(resigns)  # one search per re-signing
    assert len(searches) <= CORPUS_BALANCE_SEARCHES
    assert splits == []


# frontier DP runs while solving corpus seeds 0..99: one per oracle call
# (1,494 while the oracle read its witness by self-reduction, one more run
# per free edge)
CORPUS_DP_RUNS = 344


def test_corpus_dp_runs_are_bounded(monkeypatch):
    corpus = [gen_random_pt(seed, 12) for seed in range(100)]
    runs = _count_calls(monkeypatch, orient_module._frontier_first)
    oracles = _count_calls(monkeypatch, oracle_solve)
    for g, p in corpus:
        solve(g, p)
    assert len(runs) <= len(oracles)
    assert len(runs) <= CORPUS_DP_RUNS


def test_each_public_call_checks_its_prescription_once(monkeypatch):
    # solve, oracle_solve, is_valid_orientation and greedy_direct_and_delete
    # each read _check_prescription once, and every engine answer is
    # validated once by its engine and once more by solve
    corpus = [gen_random_pt(seed, 12) for seed in range(100)]
    checks = _count_calls(monkeypatch, orient_module._check_prescription)
    oks = _count_calls(monkeypatch, orient_module.prescription_ok)
    oracles = _count_calls(monkeypatch, oracle_solve)
    greedy = _count_calls(monkeypatch, greedy_direct_and_delete)
    validations = _count_calls(monkeypatch, is_valid_orientation)
    for g, p in corpus:
        assert solve(g, p)[0] is not None
    solves = len(corpus)
    assert oracles and greedy and not oks
    assert len(validations) == solves + len(oracles) + len(greedy)
    assert len(checks) == solves + len(oracles) + len(greedy) + len(validations)


def test_solve_counts_chi_at_most_once(monkeypatch):
    corpus = [gen_random_pt(seed, 12) for seed in range(100)]
    calls = _count_calls(monkeypatch, embedding.euler_characteristic)
    per_solve = []
    for g, p in corpus:
        calls.clear()
        solve(g, p)
        per_solve.append(len(calls))
    assert max(per_solve) == 1  # once, at the first split, and never again


def test_solve_without_splits_counts_no_chi(monkeypatch):
    instances = []
    for i in (51, 101):
        for g in (gen_circulant_b(i), gen_a(i)):
            instances.append((g, random_prescription(g, 0)))
    for k in range(4):
        g, p, _ = gen_counterexample(k)
        instances.append((g, p))
    calls = _count_calls(monkeypatch, embedding.euler_characteristic)
    for g, p in instances:
        solve(g, p)
    assert calls == []


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


# Corpus seeds 0..99 under lowered budgets (16 frontier DP states, 1000 cut
# search steps): 41 solve, 59 are refused, and many more oracle refusals
# are caught by a pending level, which then falls through
REFUSAL_TRACE_DIGEST = "7467617b410c46809fe632535be11d19e768f967fd69e2a69239ec9921bf9cda"


def test_refusal_paths_replay_byte_for_byte(monkeypatch):
    # Any change in where a refusal is caught shows here: in the steps of
    # a solve that survives one, or in the message of one that does not.
    monkeypatch.setattr(orient_module, "_FRONTIER_STATE_BUDGET", 16)
    monkeypatch.setattr(cuts, "_CUT_STEP_BUDGET", 1000)
    seen = _spy_oracle(monkeypatch)
    h = hashlib.sha256()
    refused = 0
    for seed in range(100):
        g, p = gen_random_pt(seed, 12)
        try:
            o, trace = solve(g, p)
        except solver_module.SolverRefusal as exc:
            refused += 1
            h.update(f"rpt{seed}\nrefused {exc}\n".encode())
            continue
        h.update(f"rpt{seed}\n{serialize_trace(trace)}".encode())
        if o is not None:
            h.update(serialize_orientation(o.tails()).encode())
    bounded = sum(isinstance(x, OracleBoundError) for x in seen)
    assert refused == 59 and bounded > refused
    assert h.hexdigest() == REFUSAL_TRACE_DIGEST
