"""Self-tests of the benchmark harness.  From the repository root:

    python3 -m pytest -q solvebench
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from crossflow.families import gen_circulant_b, gen_counterexample  # noqa: E402
from crossflow.orient import Orientation, random_prescription  # noqa: E402
from crossflow.pgr import serialize_graph  # noqa: E402
from crossflow.solver import solve  # noqa: E402

import checks  # noqa: E402
from spans import Recorder, layer_times, measured_kernels  # noqa: E402
from speed import NominalClock  # noqa: E402


def test_self_time_subtracts_nested_children_once():
    # solve [0, 10] holds split [1, 6], which holds trace_faces [2, 4];
    # a second trace_faces [7, 8] sits directly under solve
    spans = [
        (0, "solve", 0.0, 10.0, None, "i"),
        (1, "split", 1.0, 6.0, 0, "i"),
        (2, "trace_faces", 2.0, 4.0, 1, "i"),
        (3, "trace_faces", 7.0, 8.0, 0, "i"),
    ]
    t = layer_times(spans)
    assert t["solve"] == (1, 10.0, 4.0)
    assert t["split"] == (1, 5.0, 3.0)
    assert t["trace_faces"] == (2, 3.0, 3.0)
    assert sum(row[2] for row in t.values()) == 10.0  # self times tile the root


def test_self_time_counts_overlapping_children_once():
    spans = [
        (0, "outer", 0.0, 10.0, None, "i"),
        (1, "a", 1.0, 5.0, 0, "i"),
        (2, "b", 3.0, 7.0, 0, "i"),
    ]
    assert layer_times(spans)["outer"][2] == 4.0


def test_recorder_nests_spans_and_counts_raised_calls():
    import types

    mod = types.SimpleNamespace()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    def outer(x):
        return mod.inner(x) + 1

    mod.inner, mod.outer = inner, outer
    rec = Recorder(spans=True)
    rec.install({"m": mod}, [("m", "m", "outer", None), ("m", "m", "inner", None)])
    rec.begin("req")
    assert mod.outer(1) == 2
    try:
        mod.inner(-1)
    except ValueError:
        pass
    rec.end()
    rec.uninstall()
    assert mod.inner is inner and mod.outer is outer
    assert rec.counts["m.outer.calls"] == 1 and rec.counts["m.inner.calls"] == 2
    by_id = {s[0]: s for s in rec.spans}
    root = next(s for s in rec.spans if s[4] is None)
    first_inner = min(s for s in rec.spans if s[1] == "m.inner")
    assert by_id[first_inner[4]][1] == "m.outer"
    assert by_id[by_id[first_inner[4]][4]] == root
    assert {s[5] for s in rec.spans} == {"req"}


def test_percentile_rule_needs_200_samples_for_ten_beyond_p95():
    assert checks.beyond(200, 95) == 10
    assert checks.beyond(199, 95) < 10
    assert checks.beyond(400, 95) == 20
    assert checks.percentile(range(1, 201), 95) == 190
    assert checks.percentile(range(1, 201), 50) == 100
    assert checks.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.0
    assert checks.percentile([4.0, 1.0, 3.0, 2.0], 95) == 4.0


def test_gate_rejects_a_tampered_orientation():
    g = gen_circulant_b(7)
    p = random_prescription(g, 3)
    text = serialize_graph(g, prescription=p)
    o, _ = solve(g, p)
    assert checks.check_answer(text, "valid", "valid", o) is None
    e = min(o.direction)
    t, h = o.direction[e]
    tampered = Orientation(direction={**o.direction, e: (h, t)}, fixed=o.fixed)
    assert checks.check_answer(text, "valid", "valid", tampered) is not None
    partial = Orientation(direction={e: (t, h)})
    assert checks.check_answer(text, "valid", "valid", partial) is not None


def test_gate_judges_outcomes_against_the_known_answer():
    g, p, _ = gen_counterexample(0)
    text = serialize_graph(g, prescription=p)
    assert checks.check_answer(text, "none", "none", None) is None
    assert checks.check_answer(text, "none", "refused", None) is None
    assert checks.check_answer(text, "none", "valid", Orientation()) is not None
    assert checks.check_answer(text, "valid", "none", None) is not None
    assert checks.check_answer(text, "valid", "refused", None) is not None
    assert checks.check_answer(text, "valid", "error", None) is not None
    assert checks.check_answer(text, "none", "error", None) is not None


def test_fingerprint_covers_outcomes_traces_and_counters():
    records = [("a", "valid", "trace 1\n"), ("b", "none", "trace 1\n")]
    base = checks.fingerprint(records, {"x": 1})
    assert checks.fingerprint(list(records), {"x": 1}) == base
    assert checks.fingerprint(records, {"x": 2}) != base
    assert checks.fingerprint([records[0], ("b", "refused", "")], {"x": 1}) != base


def test_nominal_clock_keeps_kernel_time_and_drops_its_own_samples():
    import time

    clock = NominalClock()
    nap = clock.kernel(time.sleep)
    with clock.timing() as lap:
        nap(0.05)  # long enough to be sampled about five times
    assert abs(lap.wall - 0.05) < 0.01
    assert abs(lap.nominal - lap.wall) < 1e-3
    assert 0 < lap.scale <= 1.0 + 1e-6


def test_compiled_orient_search_is_kept_as_measured():
    import types

    plain = measured_kernels(types.SimpleNamespace(USING_NUMBA=False))
    compiled = measured_kernels(types.SimpleNamespace(USING_NUMBA=True))
    assert "cut_scan" in plain and "orient_search" not in plain
    assert {"cut_scan", "orient_search"} <= set(compiled)
