"""The library names the benchmark harness (solvebench/) wraps or reads.

solvebench wraps the functions its ``spans.TARGETS`` name, wherever the
library binds them, and reads a few more names.  A change that deletes or
renames one of them fails here, instead of crashing the benchmark.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "solvebench"))

import run  # noqa: E402
import spans  # noqa: E402

from crossflow.families import gen_circulant_b, gen_counterexample, gen_random_pt  # noqa: E402


def test_every_wrapped_name_is_live_and_restored():
    lib = run._import_library(ROOT)
    for targets in (spans.TARGETS, spans.FINGERPRINT_TARGETS):
        originals = {(attr, name): getattr(lib[attr], name) for _, attr, name, _ in targets}
        rec = spans.Recorder(spans=True)
        rec.install(lib, targets)
        try:
            for (attr, name), fn in originals.items():
                assert getattr(lib[attr], name) is not fn, f"{attr}.{name} is not wrapped"
            rec.begin("check")
            g, p, _ = gen_counterexample(0)
            lib["solver"].solve(g, p)
            g, p = gen_random_pt(1, 9)
            lib["solver"].solve(g, p)
            g = gen_circulant_b(7)
            lib["solver"].solve(g, dict.fromkeys(g.rotation, 0))
            rec.end()
        finally:
            rec.uninstall()
        for (attr, name), fn in originals.items():
            assert getattr(lib[attr], name) is fn
        assert rec.counts["orient.oracle_solve.calls"] > 0


def test_names_the_harness_reads_exist():
    lib = run._import_library(ROOT)
    assert {"OracleCall", "OrientDeleteVertex"} <= set(lib["solver"].STEP_KINDS)
    assert isinstance(lib["_kernels"].USING_NUMBA, bool)
    for name in spans.measured_kernels(lib["_kernels"]):
        assert callable(getattr(lib["_kernels"], name))
    assert issubclass(lib["solver"].SolverRefusal, Exception)
    assert issubclass(lib["orient"].OracleBoundError, Exception)
