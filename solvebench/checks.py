"""Correctness gate, percentile rule, determinism fingerprint and the
environment stamp.  Requires ``crossflow`` to be importable."""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

import numpy as np

from crossflow import _kernels
from crossflow.orient import OrientationError, is_valid_orientation
from crossflow.pgr import parse_graph

# ------------------------------------------------------------------ gate


def check_answer(text: str, expect: str, outcome: str, orientation) -> str | None:
    """None when the answer to the instance ``text`` is acceptable, else
    why it is wrong.  A ``valid`` answer is checked against a fresh parse
    of the same text.  An orientable instance must be answered ``valid``;
    one with no valid orientation must be answered ``none`` or refused.
    ``error`` (an exception that is not a refusal, such as the solver's
    own check rejecting its orientation) is never acceptable."""
    if outcome == "error":
        return "raised an exception"
    if outcome == "refused":
        return None if expect == "none" else "refused an orientable instance"
    if outcome == "none":
        return None if expect == "none" else "answered none on an orientable instance"
    if outcome != "valid":
        return f"unknown outcome {outcome!r}"
    if expect != "valid":
        return "answered valid on an instance with no valid orientation"
    g, p = parse_graph(text)
    try:
        ok = is_valid_orientation(g, p, orientation)
    except OrientationError as exc:
        return f"orientation does not fit the input: {exc}"
    return None if ok else "orientation misses the prescription or a forced arc"


# ------------------------------------------------------------ percentiles


def rank(n: int, pct: int) -> int:
    """1-based nearest rank of the ``pct``-th percentile among n samples."""
    return max(1, (pct * n + 99) // 100)


def beyond(n: int, pct: int) -> int:
    """Samples strictly above the ``pct``-th percentile's rank."""
    return n - rank(n, pct)


def percentile(values, pct: int) -> float:
    ordered = sorted(values)
    return ordered[rank(len(ordered), pct) - 1]


# ----------------------------------------------------------- fingerprint


def fingerprint(records, counters: dict[str, int]) -> str:
    """sha256 over (key, outcome, detail) of every instance in pass order,
    where detail is the serialised trace, then the exact counters."""
    h = hashlib.sha256()
    for key, outcome, detail in records:
        h.update(f"{key}\n{outcome}\n{detail}\n".encode())
    for name in sorted(counters):
        h.update(f"{name}={counters[name]}\n".encode())
    return h.hexdigest()


def inputs_digest(instances) -> str:
    """sha256 over an instance set, to compare the set-up's builds."""
    h = hashlib.sha256()
    for inst in instances:
        h.update(f"{inst.key}\n{inst.graph}\n{inst.expect}\n{inst.text}\n".encode())
    return h.hexdigest()


def source_digest(root: Path) -> str:
    """sha256 over the library's and the benchmark's Python sources."""
    h = hashlib.sha256()
    bench = Path(__file__).resolve().parent
    files = sorted((root / "src" / "crossflow").rglob("*.py")) + sorted(bench.glob("*.py"))
    for f in files:
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


# ------------------------------------------------------------------ stamp


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a
    repository.  Reads files only; starts no process."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int) -> dict:
    return {
        "using_numba": bool(_kernels.USING_NUMBA),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cores": os.cpu_count(),
        "commit": git_commit(root),
        "seed": seed,
    }
