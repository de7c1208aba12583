"""Host speed probe: one fixed computation, timed between CLI runs.

The benchmark runs on cores shared with other tenants.  A core's speed
drifts by up to a factor of two, for seconds to minutes at a time, and
the guest sees no steal time for it, so a raw wall time measures the
neighbours as much as the program.  run.py therefore keeps itself and
its children on one core, times `probe` on that core before and after
every cycle of CLI run and set-ups, and rescales the cycle's times to the
host speed at which `probe` takes REFERENCE_S seconds.

The probe does the kinds of numpy work the solvers do, on a 64 x 64
array: whole-array Newton steps, a five-point stencil with inner
products, and gathered projected updates.  It does not touch bean_limit:
a change to the program moves the rescaled times in full.
"""

from __future__ import annotations

import os
import time

import numpy as np

# The probe's time on an uncontended core of the 2-core Xeon VM (CPython
# 3.11, numpy 2.4) this benchmark was built on.  Rescaled times are
# "seconds at that speed"; on that host, uncontended, they equal raw times.
REFERENCE_S = 0.35
_N = 64
_REPS = 300


def pin_to_one_cpu() -> int:
    """Keep this process, and the children it starts, on one allowed core.

    The last core is taken, because the first usually serves the
    interrupts.  Returns the core's number.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def probe() -> float:
    """Seconds taken by the fixed computation on this core, now."""
    x = np.linspace(0.1, 1.0, _N * _N).reshape(_N, _N)
    jj, ii = np.nonzero(np.add.outer(np.arange(_N), np.arange(_N)) % 7 == 3)
    t0 = time.perf_counter()
    for _ in range(_REPS):
        u = x.copy()
        for _ in range(8):  # whole-array Newton steps, as in the pointwise solve
            f = u + 0.5 * u ** 8 - x
            u = np.abs(u - f / (1.0 + 4.0 * u ** 7))
            np.max(np.abs(f))
        for _ in range(10):  # five-point stencil and inner product, as in CG
            r = 4.0 * u[1:-1, 1:-1] - u[:-2, 1:-1] - u[2:, 1:-1] - u[1:-1, :-2] - u[1:-1, 2:]
            float(np.sum(r * r))
        for _ in range(40):  # gathered projected updates, as in the ordered sweeps
            v = u[jj, ii]
            u[jj, ii] = np.maximum(0.0, v + 0.1 * (x[jj, ii] - v))
    return time.perf_counter() - t0
