"""Calibration kernel for the end-to-end timings.

The benchmark host's speed drifts by up to half over tens of seconds (other
tenants share the cores), which moves every wall time together.  Dividing
a step's time by the time of this fixed kernel, run just before and just
after the step, cancels most of that drift.  Different code slows by
different amounts, so the kernel mixes the three kinds of work the
workloads do: numpy passes over 8k-long arrays (sort, searchsorted,
transcendental ufuncs), many small numpy calls from interpreted loops (the
shape of the per-gene bootstrap and the recursive Kendall-tau count), and
plain interpreted Python.  It uses nothing from the package, so no change
to the package can move it.
"""

from __future__ import annotations

import itertools
import statistics
import time

import numpy as np

_rng = np.random.default_rng(12345)
_X = _rng.random(8192)
_ROWS = _rng.random((120, 6)) + 0.5
BOUNDARY_RUNS = 3


def _vector_part() -> float:
    acc = 0.0
    for _ in range(4):
        v = np.sort(_X * 1.0001)
        c = np.searchsorted(v, _X, side="right")
        acc += float(np.sum(np.exp(-v) * np.log1p(v) / np.maximum(c, 1)))
    return acc


def _small_array_part() -> float:
    acc = 0.0
    for row in _ROWS:
        idx = np.array(list(itertools.product(range(3), repeat=3)), dtype=int)
        a = row[:3][idx].mean(axis=1)
        b = row[3:][idx].mean(axis=1)
        acc += float(np.std(np.log2(a[:, None] / b[None, :]).ravel(), ddof=1))
    return acc


def _python_part(n: int) -> int:
    total = 0
    for i in range(n):
        total += len((i, i + 1)) * (i & 7)
    return total


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel (about 20 ms on a 2-core Xeon VM)."""
    t0 = time.perf_counter()
    acc = _vector_part() + _small_array_part() + _python_part(10_000)
    elapsed = time.perf_counter() - t0
    if not acc > 0.0:
        raise RuntimeError("calibration kernel produced a wrong result")
    return elapsed


def boundary_seconds() -> float:
    """Median kernel time over BOUNDARY_RUNS runs after a discarded warm-up.

    The warm-up refills the caches the step before may have evicted, so
    every boundary is measured warm, whatever step it follows.
    """
    kernel_seconds()
    return statistics.median(kernel_seconds() for _ in range(BOUNDARY_RUNS))
