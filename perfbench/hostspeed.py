"""Host-speed calibration for the benchmark's timings.

On the 2-core reference host the CPU speed of a process drifts by up to a
factor of two over seconds to minutes (other tenants), and CPU time drifts
with wall time, so raw wall-clock figures of identical runs spread by a
quarter or more.  A fixed kernel, timed just before and just after each
operation, measures the speed the operation ran at; `normalized` rescales
the operation's wall-clock time to the speed at which the kernel takes
REFERENCE_S.  The kernel mixes what the drivers spend their time on: numpy
dispatch on a small array, arithmetic on a wider one, and float formatting.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# about the kernel's median time on the reference host
REFERENCE_S = 0.0055
_ITERATIONS = 1500
_SMALL = np.ones(20)
_WIDE = np.ones(400)


def kernel_seconds() -> float:
    start = perf_counter()
    acc = 0.0
    for _ in range(_ITERATIONS):
        y = _SMALL * 1.0001 + 0.5
        z = _WIDE * y[0] - y[1]
        acc += len("%.17g" % float(z[0]))
    return perf_counter() - start


def normalized(seconds: float, kernel_s: float) -> float:
    """`seconds` measured while the kernel took `kernel_s`, at reference speed."""
    return seconds * REFERENCE_S / kernel_s
