"""A fixed reference kernel that gauges how fast the host runs right now.

The benchmark runs on shared hosts whose speed drifts: the same op, with the
same input, takes from 0.75 to 1.4 times its median CPU time, in phases of
seconds to minutes. A timed worker runs ``kernel()`` before every op and once
after the last, and run.py reports each op's time calibrated to the
reference speed:

    calibrated_i = op_i * NOMINAL_S / ((ref_i + ref_{i+1}) / 2)

that is, the op's time on a host where the kernel takes NOMINAL_S. The kernel
does the kinds of work an op does (interpreted loops, small numpy arrays, a
small matrix product, dict and tuple handling) and calls no ``mvop`` code, so a
change to the program cannot change it. Raw wall times stay in the run record.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the host the benchmark was defined on (2 vCPUs of an
# Intel Xeon, Python 3.11, numpy 2.4). It only fixes the scale of calibrated
# times; any constant would do, as long as it never changes.
NOMINAL_S = 0.010

_REPS = 400
_A = np.linspace(-1.0, 1.0, 36).reshape(6, 6)
_X = np.linspace(-0.9, 0.9, 40)
_COEFFS = np.linspace(0.5, 1.5, 8)


def kernel() -> float:
    """The fixed unit of work; the result only keeps it from being skipped."""
    acc = 0.0
    table: dict = {}
    for i in range(_REPS):
        y = np.polyval(_COEFFS, _X)
        acc += float(y.sum())
        m = _A @ _A.T
        acc += float(m[i % 6, 0])
        table[(i % 13, i % 7)] = acc
    return acc + len(table)


def timed_kernel() -> float:
    """Seconds one run of the kernel takes."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def calibrated(latencies: list, refs: list) -> list:
    """Op times at the reference speed; ``refs`` has one more entry than ``latencies``."""
    return [lat * NOMINAL_S / ((refs[i] + refs[i + 1]) / 2.0)
            for i, lat in enumerate(latencies)]
