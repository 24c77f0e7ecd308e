"""Times measured at a fixed nominal processor speed.

On a shared machine the interpreter's speed swings by up to threefold
from one second to the next and from one minute to the next, and the
solver's wall time swings with it.  A fixed pure-Python reference loop
slows down by the same factor: sampled while 100 corpus instances were
solved, its time tracked theirs with correlation 0.99.  Dividing by it
turns a wall time into nominal seconds, the time the work takes when the
loop takes its unloaded time.  The loop uses nothing from crossflow, so a
change to the library cannot move it.

Vectorised numpy code slows down by other, smaller factors: scaling it
by this loop, or by a numpy loop shaped like it, made the counterexample
runs less steady in trials.  So time inside the vectorised or compiled
kernels listed in ``spans.MEASURED_KERNELS`` (``_kernels.cut_scan``, and
``_kernels.orient_search`` when numba compiles it) is kept as measured.
"""

from __future__ import annotations

import functools
import signal
import statistics
import time
from contextlib import contextmanager

# the loop's time on an unloaded 2-core Xeon VM, Python 3.11
PYTHON_SECONDS = 330e-6
# a long piece of work is also sampled while it runs, this often
SAMPLE_SECONDS = 0.01


def python_reference() -> int:
    """Fixed work in the solver's idiom: tuple keys, dict updates, a sort
    and list appends."""
    d: dict[tuple[int, int], int] = {}
    for i in range(400):
        k = ((i * 7919) % 101, i & 7)
        d[k] = d.get(k, 0) + 1
    out = []
    acc = 0
    for (a, b), c in sorted(d.items()):
        out.append((b, a, c))
        acc += len(out) & 3
    return acc


def _timed(fn) -> float:
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


class Lap:
    wall: float  # seconds of work, sampling excluded
    nominal: float  # the same at nominal speed
    scale: float  # nominal over the elapsed time, sampling included


class NominalClock:
    """Times pieces of work in wall and nominal seconds.

    The interpreter's speed during a piece is the mean reference time over
    one sample just before it, one just after it (which serves as the one
    before the next piece) and one every ``SAMPLE_SECONDS`` while it runs,
    taken from a timer signal.  The samples' own time is not work."""

    def __init__(self):
        self._before = _timed(python_reference)
        self._samples: list[float] = []
        self._in_kernel = False
        self._kernel = 0.0  # kernel seconds, samples included
        self._kernel_samples = 0.0

    def _sample(self, signum, frame) -> None:
        t = _timed(python_reference)
        self._samples.append(t)
        if self._in_kernel:
            self._kernel_samples += t

    def kernel(self, fn):
        """``fn`` wrapped so that its time is kept as measured."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if self._in_kernel:  # already inside a measured kernel
                return fn(*args, **kwargs)
            self._in_kernel = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._kernel += time.perf_counter() - start
                self._in_kernel = False

        return timed

    @contextmanager
    def timing(self):
        lap = Lap()
        self._samples, self._kernel, self._kernel_samples = [], 0.0, 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_SECONDS, SAMPLE_SECONDS)
        start = time.perf_counter()
        try:
            yield lap
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        after = _timed(python_reference)
        speed = statistics.fmean([self._before, *self._samples, after])
        self._before = after
        kernel = self._kernel - self._kernel_samples
        interpreted = elapsed - self._kernel - (sum(self._samples) - self._kernel_samples)
        lap.wall = interpreted + kernel
        lap.nominal = interpreted * PYTHON_SECONDS / speed + kernel
        lap.scale = lap.nominal / elapsed
