"""Host-speed correction: every timed unit is scaled to a reference core.

The benchmark runs on a few cores of a shared host whose speed changes in
phases that last from seconds to minutes.  In such a phase the same
``calibrate_analysis_times`` call takes up to 1.9 times as long, in user
time alone: no page faults, no system time, no context switches, process
time equal to wall time.  Longer runs and medians do not remove phases that
last a whole run.

So a fixed reference kernel runs after every timed unit of the workloads
it tracks.  It is a mix of the operations seqsurv spends its time in: Python
list and dict work, Newton-like steps of a Cox fit on one arm (many small
numpy calls) and stable sort, unique and bincount on tied arrays the size
of a large trial.  It uses no seqsurv code, so a change to the program does
not change it.  A unit's time is scaled by ``REFERENCE_S`` ÷ the mean kernel
time of the ticks before and after it: the time the unit would take on a
core where the kernel takes ``REFERENCE_S``.  Over ten 30-second runs of
calib_nph_null, the spread (IQR / median) of throughput was 9.9 % unscaled
and 5.8 % scaled; see README.md for the other workloads.

A change that makes the kernel slower as well, for example one that leaves
busy threads running between calls, is partly hidden by the scaling; the
raw figures are printed beside the scaled ones for that reason.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.020   # kernel seconds on the reference core

_RNG = np.random.default_rng(20240317)
_OBJECTS = [float(x) for x in _RNG.random(40_000)]
_Z = _RNG.random((400, 2))                              # one arm, two covariates
_X = _RNG.random(400)
_DAYS = _RNG.integers(0, 3000, 20_000).astype(float)   # tied times, as in interim_ties
_W = _RNG.random(20_000)


def kernel() -> float:
    # Python objects: sort, sum and a dict of running totals.
    total = sorted(_OBJECTS[::2])[5] + sum(_OBJECTS)
    buckets: dict[int, float] = {}
    for i, x in enumerate(_OBJECTS[:8_000]):
        buckets[i % 97] = buckets.get(i % 97, 0.0) + x
    # Newton-like steps of a Cox fit on one arm: many small numpy calls.
    beta = np.array([0.2, -0.1])
    for _ in range(120):
        eta = _Z @ beta
        risk = np.exp(eta - eta.max())
        at_risk = np.cumsum(risk[::-1])[::-1]
        zbar = np.cumsum((_Z * risk[:, None])[::-1], axis=0)[::-1] / at_risk[:, None]
        score = (_Z - zbar).sum(axis=0)
        hessian = np.array([[1.0 + abs(score[0]), 0.1], [0.1, 1.0 + abs(score[1])]])
        beta = beta + 1e-6 * np.linalg.solve(hessian, score)
        total += float(np.searchsorted(_X, 0.5)) + float(np.maximum(_X, 0.3).sum())
    # Tied, trial-size arrays: stable sort, unique, bincount.
    for _ in range(2):
        order = np.argsort(_DAYS, kind="stable")
        _, inverse = np.unique(_DAYS, return_inverse=True)
        risk = np.cumsum(_W[order][::-1])[::-1]
        total += float(risk[0]) + float(np.bincount(inverse, weights=_W).max())
    return total + buckets[3] + float(beta[0])


class Speed:
    """Kernel ticks between timed units, and the scaling they give."""

    def __init__(self) -> None:
        kernel()   # warm-up
        self.ticks: list[float] = []
        self.tick()

    def tick(self) -> None:
        start = time.perf_counter()
        kernel()
        self.ticks.append(time.perf_counter() - start)

    def scale(self, secs: float) -> float:
        """``secs``, measured between the last two ticks, on the reference core."""
        return secs * REFERENCE_S / (0.5 * (self.ticks[-2] + self.ticks[-1]))

    def measure(self, fn, *args):
        """Run ``fn(*args)`` and tick; returns (scaled seconds, seconds, result)."""
        start = time.perf_counter()
        try:
            result = fn(*args)
            secs = time.perf_counter() - start
        finally:
            self.tick()
        return self.scale(secs), secs, result
