"""Spans and counters recorded around the library's public functions.

A ``Recorder`` replaces each target function, in every crossflow module
that holds it, with a wrapper.  The same function object is bound under
several names (``solver`` imports ``oracle_solve`` with ``from ... import``,
while ``cuts`` calls ``_kernels.cut_scan`` through the module), so a
target is patched wherever it is looked up, by identity.

Spans are kept in memory as tuples and written out when the run ends.
Self time is derived afterwards from the span list by ``layer_times``.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter


def _faces(args, kwargs, result):
    return {"faces": len(result), "darts": sum(f.length for f in result)}


def _cut_scan(args, kwargs, result):
    # every mask 1 .. 2^nfree - 1 is looked at once
    return {"masks_examined": (1 << int(args[2])) - 1, "masks_kept": len(result)}


def _cuts(args, kwargs, result):
    return {"cuts": len(result)}


def _hits(args, kwargs, result):
    return {"hits": int(result is not None)}


def _oracle(args, kwargs, result):
    g = args[0]
    partial = args[2] if len(args) > 2 else kwargs.get("partial")
    directed = set(g.darcs) | (set(partial.direction) if partial else set())
    return {"free_edges": len(g.edges) - len(directed), "hits": int(result is not None)}


# (layer, module attribute, function, counter) for every wrapped function.
# The layer is the metric prefix; ``kernels`` stands for crossflow._kernels
# because metric names must start with a letter.
TARGETS = (
    ("pgr", "pgr", "parse_graph", None),
    ("families", "families", "gen_random_pt", None),
    ("families", "families", "disk_crosscap_graph", None),
    ("families", "families", "circulant_schedule", None),
    ("solver", "solver", "solve", None),
    ("solver", "solver", "detect_family", _hits),
    ("embedding", "embedding", "trace_faces", _faces),
    ("embedding", "embedding", "euler_characteristic", None),
    ("embedding", "embedding", "contract_subgraph", None),
    ("embedding", "embedding", "split_doubled_boundary_vertex", None),
    ("embedding", "embedding", "specified_walk", None),
    ("cuts", "cuts", "enumerate_robust_cuts", _cuts),
    ("cuts", "cuts", "check_class", None),
    ("cuts", "cuts", "edge_connectivity", None),
    ("cuts", "cuts", "boundary_connectivity", None),
    ("orient", "orient", "oracle_solve", _oracle),
    ("orient", "orient", "greedy_direct_and_delete", None),
    ("orient", "orient", "transfer_orientation", None),
    ("orient", "orient", "is_valid_orientation", None),
    ("kernels", "_kernels", "cut_scan", _cut_scan),
    ("kernels", "_kernels", "orient_search", None),
)

# The two functions whose counters enter the determinism fingerprint; an
# untraced run counts these and records no spans.  The fingerprint needs
# only the oracle's calls, so the untraced run skips its counter.
FINGERPRINT_TARGETS = (
    ("orient", "orient", "oracle_solve", None),
    next(t for t in TARGETS if t[2] == "cut_scan"),
)

# crossflow._kernels functions whose time the nominal clock keeps as
# measured instead of scaling it by the interpreter's speed (speed.py):
# vectorised or compiled code, which the pure-Python reference loop does
# not track.  Any new vectorised or compiled kernel must be added here, or
# its time is scaled as if it were interpreted.
MEASURED_KERNELS = ("cut_scan",)  # numpy, or compiled with numba
MEASURED_WITH_NUMBA = ("orient_search",)  # pure Python without numba


def measured_kernels(kernels) -> tuple[str, ...]:
    """The names in ``kernels`` (crossflow._kernels) kept as measured."""
    return MEASURED_KERNELS + (MEASURED_WITH_NUMBA if kernels.USING_NUMBA else ())

ROOT = "bench.instance"


def patch(package_modules: dict[str, object], original, replacement):
    """Bind ``replacement`` wherever a module of ``package_modules`` binds
    ``original``; returns (module, name, original) for each binding."""
    done = []
    for module in package_modules.values():
        for name, value in list(vars(module).items()):
            if value is original:
                done.append((module, name, original))
                setattr(module, name, replacement)
    return done


class Recorder:
    """Counts calls (and, with ``spans``, records spans) of the target
    functions while a request is open.  Outside a request the wrappers
    only forward the call."""

    def __init__(self, spans: bool):
        self.with_spans = spans
        self.spans: list[tuple[int, str, float, float, int | None, str]] = []
        self.counts: Counter = Counter()
        self.request: str | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching

    def install(self, package_modules: dict[str, object], targets=TARGETS) -> None:
        """Wrap every target in every module of ``package_modules`` (name ->
        module) that binds it."""
        for layer, attr, fn_name, counter in targets:
            original = getattr(package_modules[attr], fn_name)
            wrapper = self._wrap(f"{layer}.{fn_name}", original, counter)
            self._patched += patch(package_modules, original, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _wrap(self, name: str, fn, counter):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.request is None:
                return fn(*args, **kwargs)
            rec.counts[calls] += 1  # raised calls count too
            if not rec.with_spans:
                result = fn(*args, **kwargs)
            else:
                sid = rec._open()
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec._close(sid, name, start, time.perf_counter())
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    rec.counts[f"{name}.{key}"] += value
            return result

        calls = f"{name}.calls"
        return wrapper

    # ------------------------------------------------------------ requests

    def _open(self) -> int:
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, name, start, end, parent, self.request))

    def begin(self, request: str) -> None:
        """Open a request; with spans, its root span starts now."""
        self.request = request
        if self.with_spans:
            self._root = (self._open(), time.perf_counter())

    def end(self) -> None:
        if self.with_spans:
            sid, start = self._root
            self._close(sid, ROOT, start, time.perf_counter())
        self.request = None

    def write_spans(self, path) -> None:
        """Gzipped, one JSON array per line: id, name, start, end, parent,
        request."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_times(spans) -> dict[str, tuple[int, float, float]]:
    """name -> (spans, total seconds, self seconds).  A span's self time is
    its duration minus the part of it that its child spans cover, so a
    function nested in another is not counted twice."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, list] = {}
    for sid, name, start, end, _, _ in spans:
        own = (end - start) - _covered(children.get(sid, []), start, end)
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += own
    return {k: tuple(v) for k, v in out.items()}
