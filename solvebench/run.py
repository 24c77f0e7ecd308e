"""End-to-end solve benchmark for crossflow.

Run from the repository root:

    python3 solvebench/run.py --workload corpus --seed 0 --seconds 20 --trace 0

One process per workload, a closed loop with one client on one thread.
Set-up builds every instance of the workload and serialises it to .pgr
text; each timed sample then parses one text and solves it, as
``crossflow solve`` does, and the correctness gate checks the answer.
Whole passes over the instance set run until ``--seconds`` have elapsed.
Times are nominal seconds (see speed.py); wall times are printed beside.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
library's public functions (see spans.py) and prints per-layer metrics.
The last line of standard output is one JSON object; the lines before it
are the same numbers for people, with the environment stamp.  Details,
the fingerprint and (traced) the spans are written under .solvebench/.
Exit code 0 when every answer is correct, 1 when one is wrong or a run
is not deterministic, 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import spans
import speed

OUT_DIR = ".solvebench"
SETUP_REPEATS = 3  # setup_s is the median of this many set-ups, each in its own process
WARMUP = 8  # untimed instances solved before timing, at most half a pass
FINGERPRINT_COUNTERS = ("kernels.cut_scan.masks_examined", "orient.oracle_solve.calls")


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("corpus", "circulant", "counterexample"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set up once, print its seconds and inputs digest as JSON, and exit
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def _quit(message: str):
    print(f"solvebench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_library(root: Path):
    """Import crossflow from the checkout's src/, never from elsewhere."""
    pkg = root / "src" / "crossflow"
    if not (pkg / "__init__.py").is_file():
        _quit(f"{pkg} not found; run from the repository root")
    sys.path.insert(0, str(root / "src"))
    import crossflow

    if Path(crossflow.__file__).resolve().parent != pkg.resolve():
        _quit(f"crossflow was imported from {crossflow.__file__}, not {pkg}")
    from crossflow import _kernels, cuts, embedding, families, orient, pgr, solver

    return {
        "crossflow": crossflow,
        "pgr": pgr,
        "families": families,
        "solver": solver,
        "embedding": embedding,
        "cuts": cuts,
        "orient": orient,
        "_kernels": _kernels,
    }


class Run:
    """One workload's timed passes, their gate and their determinism."""

    def __init__(self, lib, instances, check_answer, clock):
        self.lib = lib
        self.clock = clock
        self.check_answer = check_answer
        self.instances = instances
        self.step_kinds = sorted(lib["solver"].STEP_KINDS)
        self.refusals = (lib["solver"].SolverRefusal, lib["orient"].OracleBoundError)
        self.wrong: list[str] = []
        self.errors_shown: set[str] = set()
        self.reference: list[tuple[str, str, str]] | None = None
        self.mismatches = 0
        self.scales: dict[str, float] = {}  # request -> nominal over elapsed time

    def attempt(self, inst, rec, request: str):
        """Parse and solve one instance; returns (outcome, detail, wall
        seconds, nominal seconds, step kinds).  The gate runs after the
        clock stops."""
        pgr, solver = self.lib["pgr"], self.lib["solver"]
        orientation = trace = error = None
        with self.clock.timing() as lap:
            if rec is not None:
                rec.begin(request)
            try:
                g, p = pgr.parse_graph(inst.text)
                orientation, trace = solver.solve(g, p)
            except Exception as exc:  # a failed operation; the run goes on
                error = exc
            if rec is not None:
                rec.end()
        if rec is not None:
            self.scales[request] = lap.scale
        if error is None:
            outcome, detail = trace.outcome, solver.serialize_trace(trace)
            kinds = Counter(st.kind for st in trace.steps)
        else:
            outcome = "refused" if isinstance(error, self.refusals) else "error"
            detail, kinds = f"{type(error).__name__}: {error}", Counter()
            if outcome == "error" and detail not in self.errors_shown:
                self.errors_shown.add(detail)
                print(f"error on {inst.key}:", file=sys.stderr)
                traceback.print_exception(error, file=sys.stderr)
        problem = self.check_answer(inst.text, inst.expect, outcome, orientation)
        if problem is not None:
            self.wrong.append(f"{inst.key}: {problem}")
        return outcome, detail, lap.wall, lap.nominal, kinds

    def one_pass(self, rec, pass_no: int):
        """Every instance once; compares outcomes and traces with the first
        pass of the run."""
        rows, records, kinds = [], [], Counter()
        for inst in self.instances:
            outcome, detail, seconds, nominal, k = self.attempt(
                inst, rec, f"{inst.key}#{pass_no}"
            )
            rows.append((outcome, seconds, nominal))
            records.append((inst.key, outcome, detail))
            kinds.update(k)
        if self.reference is None:
            self.reference = records
        elif records != self.reference:
            self.mismatches += 1
        return rows, Counter({f"solver.steps.{k}": kinds[k] for k in self.step_kinds})

    def passes(self, rec, seconds: float, first_no: int = 0):
        """Whole passes until ``seconds`` have elapsed, at least one.  Per
        pass: the rows, and the step kinds plus whatever ``rec`` counted."""
        out = []
        start = time.perf_counter()
        while not out or time.perf_counter() - start < seconds:
            before = Counter(rec.counts) if rec is not None else Counter()
            rows, counts = self.one_pass(rec, first_no + len(out))
            if rec is not None:
                counts.update(rec.counts - before)
            out.append((rows, counts))
        return out


def _instance_times(timed, column: int = 2) -> list[float]:
    """Each instance's time, the median over the passes, in nominal
    seconds (column 2) or wall seconds (column 1)."""
    return [
        statistics.median(rows[i][column] for rows, _ in timed) for i in range(len(timed[0][0]))
    ]


def _decided(rows) -> int:
    return sum(1 for outcome, _, _ in rows if outcome in ("valid", "none"))


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _layer_metrics(
    rec, scales, setup_counts: Counter, timed, graphs: int, step_kinds
) -> dict:
    """Per-function calls, total and self time, counters and ratios for one
    set-up plus one timed pass (times averaged over the traced passes).
    Span times are scaled to nominal seconds by their request's ``scales``."""
    scaled = [
        (sid, name, start * scales[req], end * scales[req], parent, req)
        for sid, name, start, end, parent, req in rec.spans
    ]
    setup_t = spans.layer_times([s for s in scaled if s[5] == "setup"])
    solve_t = spans.layer_times([s for s in scaled if s[5] != "setup"])
    n = len(timed)
    counts = setup_counts + timed[0][1]
    m = {}
    layer_self = {"setup": Counter(), "solve": Counter()}
    for layer, _, fn, _ in spans.TARGETS:
        name = f"{layer}.{fn}"
        _, setup_total, setup_self = setup_t.get(name, (0, 0.0, 0.0))
        _, solve_total, solve_self = solve_t.get(name, (0, 0.0, 0.0))
        m[f"{name}.calls"] = _metric(counts[f"{name}.calls"], "count")
        m[f"{name}.total_ms"] = _metric((setup_total + solve_total / n) * 1e3, "ms")
        m[f"{name}.self_ms"] = _metric((setup_self + solve_self / n) * 1e3, "ms")
        layer_self["setup"][layer] += setup_self * 1e3
        layer_self["solve"][layer] += solve_self / n * 1e3
    for phase, by_layer in layer_self.items():
        for layer in dict.fromkeys(t[0] for t in spans.TARGETS):
            m[f"{phase}.{layer}.self_ms"] = _metric(by_layer[layer], "ms")
    for name in (
        "embedding.trace_faces.faces",
        "embedding.trace_faces.darts",
        "kernels.cut_scan.masks_examined",
        "kernels.cut_scan.masks_kept",
        "cuts.enumerate_robust_cuts.cuts",
        "orient.oracle_solve.free_edges",
        "orient.oracle_solve.hits",
        "solver.detect_family.hits",
    ) + tuple(f"solver.steps.{k}" for k in step_kinds):
        m[name] = _metric(counts[name], "count")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m["solver.detect_family.hits_per_call"] = _metric(
        ratio(counts["solver.detect_family.hits"], counts["solver.detect_family.calls"]),
        "ratio",
    )
    m["kernels.cut_scan.kept_per_examined"] = _metric(
        ratio(counts["kernels.cut_scan.masks_kept"], counts["kernels.cut_scan.masks_examined"]),
        "ratio",
    )
    m["families.disk_crosscap_graph.graphs_per_attempt"] = _metric(
        ratio(graphs, counts["families.disk_crosscap_graph.calls"]), "ratio"
    )
    return m


def _compare_stored(path: Path, fingerprint: str) -> str:
    """Compare with the fingerprint an earlier run of the same code,
    workload and seed stored; store it when there is none."""
    if path.is_file():
        stored = path.read_text().strip()
        return "matches the stored run" if stored == fingerprint else f"MISMATCH, stored {stored}"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(fingerprint + "\n")
    tmp.replace(path)
    return "stored"


def _set_up_elsewhere(args) -> tuple[float, str]:
    """One set-up in a fresh process: (nominal seconds, inputs digest)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        _quit(f"set-up in a fresh process failed:\n{done.stderr}")
    row = json.loads(done.stdout.splitlines()[-1])
    return row["setup_s"], row["inputs"]


def main(argv=None) -> int:
    args = _args(argv)
    root = Path.cwd()
    clock = speed.NominalClock()

    # ---- set-up: import, build the instance set, warm up
    with clock.timing() as lap:
        lib = _import_library(root)
        import checks
        import workloads
    import_s = lap.nominal
    kernels = lib["_kernels"]
    measured = spans.measured_kernels(kernels)
    for name in measured:  # their time is kept as measured, not scaled
        original = getattr(kernels, name)
        spans.patch(lib, original, clock.kernel(original))
    traced = spans.Recorder(spans=True) if args.trace else None
    if traced is not None:
        traced.install(lib)
        traced.begin("setup")
    with clock.timing() as lap:
        instances = workloads.build(args.workload, args.seed)
    if traced is not None:
        traced.end()
        traced.uninstall()
    setup_counts = Counter(traced.counts) if traced is not None else Counter()
    run = Run(lib, instances, checks.check_answer, clock)
    run.scales["setup"] = lap.scale
    warmup_s = sum(
        run.attempt(inst, None, "warmup")[3]
        for inst in instances[: min(WARMUP, len(instances) // 2)]
    )
    setup_samples = [import_s + lap.nominal + warmup_s]
    input_digests = {checks.inputs_digest(instances)}
    if args.setup_only:
        print(json.dumps({"setup_s": setup_samples[0], "inputs": input_digests.pop()}))
        return 0
    if traced is None:
        # the import and the warm-up happen once per process, so each
        # further sample of the set-up is taken in a fresh process
        for _ in range(SETUP_REPEATS - 1):
            seconds, inputs = _set_up_elsewhere(args)
            setup_samples.append(seconds)
            input_digests.add(inputs)
    setup_s = statistics.median(setup_samples)

    # ---- timed passes
    if traced is not None:
        untraced = run.passes(None, 0.0)  # one pass, for the tracing overhead
        traced.install(lib)
        timed = run.passes(traced, args.seconds, first_no=1)
        traced.uninstall()
        attempted_passes = untraced + timed
    else:
        counting = spans.Recorder(spans=False)
        counting.install(lib, spans.FINGERPRINT_TARGETS)
        timed = run.passes(counting, args.seconds)
        counting.uninstall()
        attempted_passes = timed
    times = _instance_times(timed)
    decided = _decided(timed[0][0])
    rate = decided / sum(times)

    # ---- determinism
    fp_keys = FINGERPRINT_COUNTERS + tuple(f"solver.steps.{k}" for k in run.step_kinds)
    fp_counts = {k: timed[0][1][k] for k in fp_keys}
    counters_repeat = all({k: c[k] for k in fp_keys} == fp_counts for _, c in timed)
    fingerprint = checks.fingerprint(run.reference, fp_counts)
    digest = checks.source_digest(root)
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    stored = _compare_stored(
        out_dir / f"fingerprint-{args.workload}-{args.seed}-{digest[:16]}.txt", fingerprint
    )
    nondeterminism = []
    if len(input_digests) != 1:
        nondeterminism.append("set-up built different inputs from one seed")
    if run.mismatches:
        nondeterminism.append(
            f"{run.mismatches} passes differ from the first in outcomes or traces"
        )
    if not counters_repeat:
        nondeterminism.append("exact counters differ between passes")
    if stored.startswith("MISMATCH"):
        nondeterminism.append(f"fingerprint {fingerprint} {stored}")

    # ---- metrics
    attempted = sum(len(rows) for rows, _ in attempted_passes)
    outcomes = Counter(o for rows, _ in attempted_passes for o, _, _ in rows)
    failed = outcomes["refused"] + outcomes["error"]
    if traced is not None:
        metrics = _layer_metrics(
            traced,
            run.scales,
            setup_counts,
            timed,
            len({i.graph for i in instances}),
            run.step_kinds,
        )
        # the untraced pass against the traced pass that follows it
        plain, traced_rate = (
            _decided(rows) / sum(r[2] for r in rows) for rows in (untraced[0][0], timed[0][0])
        )
        metrics["tracing.untraced_decided_per_s"] = _metric(plain, "1/s")
        metrics["tracing.traced_decided_per_s"] = _metric(traced_rate, "1/s")
        metrics["tracing.overhead_decided_per_s"] = _metric(traced_rate - plain, "1/s")
    else:
        metrics = {
            "decided_per_s": _metric(rate, "1/s"),
            "latency_p50_ms": _metric(checks.percentile(times, 50) * 1e3, "ms"),
            "latency_p95_ms": _metric(checks.percentile(times, 95) * 1e3, "ms"),
            "decided_frac": _metric(decided / len(instances), "ratio"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
        }
    correct = not run.wrong and not nondeterminism
    env = checks.environment(root, args.seed)

    # ---- report
    n = len(instances)
    print(f"solvebench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()) + f" source={digest[:16]}")
    print(
        "nominal clock keeps as measured: "
        + ", ".join(f"_kernels.{k}" for k in measured)
        + "; a new vectorised or compiled kernel must join spans.MEASURED_KERNELS"
    )
    print(
        f"gate: {attempted} attempted, {outcomes['valid']} valid, {outcomes['none']} none, "
        f"{outcomes['refused']} refused, {outcomes['error']} errors; "
        f"failed {failed}/{attempted}; refused_frac {outcomes['refused'] / attempted:.4g}; "
        f"wrong answers {len(run.wrong)}"
    )
    for line in run.wrong[:10]:
        print(f"  WRONG {line}")
    print(
        f"passes: {len(timed)} timed of {n} instances; latency percentiles over the {n} "
        f"per-instance medians, p95 with {checks.beyond(n, 95)} samples beyond"
    )
    pass_s = [
        f"{sum(r[1] for r in rows):.3f}/{sum(r[2] for r in rows):.3f}"
        for rows, _ in attempted_passes
    ]
    print("pass seconds, wall/nominal: " + " ".join(pass_s))
    print("set-up seconds, nominal, one per process: " + " ".join(f"{x:.3f}" for x in setup_samples))
    wall = _instance_times(timed, column=1)
    print(
        f"wall time: decided_per_s {decided / sum(wall):.6g}, latency p50 "
        f"{checks.percentile(wall, 50) * 1e3:.6g} ms, "
        f"p95 {checks.percentile(wall, 95) * 1e3:.6g} ms"
    )
    print(f"fingerprint {fingerprint} ({stored})")
    for problem in nondeterminism:
        print(f"  NONDETERMINISTIC {problem}")
    if traced is not None:
        spans_path = out_dir / f"spans-{args.workload}.jsonl.gz"  # the latest traced run
        traced.write_spans(spans_path)
        print(f"spans: {len(traced.spans)} written to {spans_path.relative_to(root)}")
    width = max(len(k) for k in metrics)
    for name, mv in metrics.items():
        print(f"  {name:<{width}}  {mv['value']:.6g} {mv['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        **result,
        "environment": env,
        "source_digest": digest,
        "fingerprint": fingerprint,
        "fingerprint_counters": fp_counts,
        "passes": len(timed),
        "instances": n,
        "refused_frac": outcomes["refused"] / attempted,
        "wrong": run.wrong,
        "nondeterminism": nondeterminism,
    }
    (out_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
