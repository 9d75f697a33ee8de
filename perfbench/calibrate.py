"""Calibration kernel: a fixed piece of work timed next to every measurement.

On a shared virtual machine the speed of the CPU the benchmark gets drifts,
by up to a factor of two, in phases lasting seconds to minutes, and CPU time
drifts with it. The kernel below does a fixed amount of the same kind of
work extctrl does (row tuples turned into arrays, small logistic Newton
steps, sorts of Python objects). Timing it right before and right after an
operation measures the machine's speed at that moment, and

    normalised seconds = wall seconds x REF_S / kernel seconds

estimates what the operation would have taken at the reference speed, the
speed at which the kernel takes ``REF_S``. The kernel is the benchmark's
own code and calls nothing in extctrl, so a change to the program leaves it
alone and moves the normalised time by the same share as the wall time.
"""

from __future__ import annotations

import time

import numpy as np

# About the kernel's seconds on a 2.1 GHz Intel Xeon vCPU with one BLAS
# thread. Any fixed value would do: it only sets the scale of the
# normalised seconds.
REF_S = 0.025

_ROWS = [tuple(r) for r in np.random.default_rng(12345).normal(size=(400, 4)).tolist()]
_BETA = np.array([0.2, -0.1, 0.3, 0.05])


def _work() -> float:
    acc = 0.0
    for k in range(96):
        X = np.array([r for r in _ROWS[k:] + _ROWS[:k]])
        mu = 1.0 / (1.0 + np.exp(-(X @ _BETA)))
        hess = (X * (mu * (1.0 - mu))[:, None]).T @ X
        acc += float(np.linalg.solve(hess, X.T @ (mu - 0.5))[0])
        acc += sorted(_ROWS, key=lambda r: r[k % 4])[0][0]
    return acc


def kernel() -> float:
    """Wall seconds of one run of the fixed kernel."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


_work()  # first-call costs (imports inside NumPy, caches) are not the machine's speed
