"""Cost of the two routes of the mean-variance driver's running sums.

`_cumulate` takes np.cumsum for slices below `CUMSUM_BELOW` elements and a
loop of whole-slice adds above it; both give the same bits.  This script
times each route, forward and reversed, on a (K, n) array of K = 25 steps
(the default config) for the slice sizes n that qlearn-ml meets: its
per-step constants at 1, 7 and 20 lanes, and its residual at batch 7 and
batch 32 at 1, 7 and 20 lanes.  Each figure is the best of 7 repeats of
2000 calls, less the copy that restores the input, in microseconds:

    PYTHONPATH=src python benchmarks/bench_cumulate.py
"""

import json
import math
import sys
import timeit

import numpy as np

from ctql.experiments import mv

STEPS = 25
SIZES = (1, 7, 20, 32, 49, 140, 160, 192, 224, 640)
NUMBER, REPEAT = 2000, 7


def _best_us(fn) -> float:
    return min(timeit.repeat(fn, number=NUMBER, repeat=REPEAT)) / NUMBER * 1e6


def route_us(size: int, reverse: bool, below: float) -> float:
    """Microseconds of one `_cumulate` call with the threshold at `below`."""
    a0 = np.random.default_rng(size).normal(size=(STEPS, size))
    a = a0.copy()
    saved = mv.CUMSUM_BELOW
    mv.CUMSUM_BELOW = below
    try:
        call = _best_us(lambda: (np.copyto(a, a0), mv._cumulate(a, reverse)))
    finally:
        mv.CUMSUM_BELOW = saved
    return call - _best_us(lambda: np.copyto(a, a0))


def main() -> int:
    rows = []
    for size in SIZES:
        row = {"slice": size}
        for reverse in (False, True):
            side = "reversed" if reverse else "forward"
            row[f"cumsum_{side}_us"] = round(route_us(size, reverse, math.inf), 2)
            row[f"loop_{side}_us"] = round(route_us(size, reverse, 0), 2)
        rows.append(row)
        print(json.dumps(row))
    print(json.dumps({"steps": STEPS, "cumsum_below": mv.CUMSUM_BELOW}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
