"""Per-step cost of the ergodic driver, one call per algo x mode x lanes.

Each benchmark times one `run_ergodic_replications` call of 2,000 steps
(dt 0.1, horizon 200) at a fixed seed, at 1, 20, 200 and 400 lanes (the
last is `ctql lq`'s width in perfbench's lq-wide), and records the steps it
ran, so the per-step time is the call time over `extra_info["steps"]`.  One
more row, the dead-lane row, runs off-policy policy gradient at 20 lanes for
12,000 steps (horizon 1,200), over which 19 of its 20 lanes diverge, between
steps 6,786 and 8,348 at the seed used here.  Every timed call sits between
two runs of perfbench's host-speed kernel
(`perfbench/hostspeed.py`), and its wall time is rescaled to the reference
speed (`extra_info["rescaled_s"]`; pytest-benchmark's own statistics include
the kernel runs).  After the timed rounds it runs the call once more at
2,000 and at 40,000 steps under `tracemalloc`, which sees numpy's buffers,
and records each call's traced peak in MB in `extra_info["peak_mb"]`, keyed
by the steps.  Run with

    PYTHONPATH=src python -m pytest benchmarks/bench_ergodic_step.py \\
        --benchmark-json=out.json

The repository's test run does not collect this file.  To compare two
checkouts, run it against each (alternating, as often as the host's noise
asks) and merge the JSON files into median rescaled microseconds per step
over all the rounds of each side, and the median traced peak of each side's
runs:

    python benchmarks/bench_ergodic_step.py before1.json,before2.json \
        after1.json,after2.json
"""

import json
import os
import statistics
import sys
import tracemalloc
from dataclasses import replace
from time import perf_counter

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
import hostspeed  # noqa: E402

LANES = (1, 20, 200, 400)
SEED = 3
HORIZON = 200.0
DEAD_HORIZON = 1200.0
DT = 0.1
PEAK_STEPS = (2000, 40000)


@pytest.mark.parametrize("lanes", LANES)
@pytest.mark.parametrize("mode", ("on-policy", "off-policy"))
@pytest.mark.parametrize("algo", ("qlearn-online", "sarsa", "pg"))
def test_ergodic_step(benchmark, algo, mode, lanes):
    _time_call(benchmark, algo, mode, lanes, HORIZON)


def test_ergodic_step_dead_lanes(benchmark):
    _time_call(benchmark, "pg", "off-policy", 20, DEAD_HORIZON)


def _time_call(benchmark, algo, mode, lanes, horizon):
    # imported here, so that merging results needs no ctql on the path
    from ctql.experiments.ergodic import (ErgodicExperimentConfig,
                                          run_ergodic_replications)

    cfg = replace(ErgodicExperimentConfig(), dt=DT, horizon=horizon)
    benchmark.extra_info.update(algo=algo, mode=mode, lanes=lanes,
                                steps=cfg.steps)
    rescaled = []

    def timed_call():
        kernel_s = hostspeed.kernel_seconds()
        start = perf_counter()
        recs = run_ergodic_replications(cfg, algo, mode, SEED, lanes)
        seconds = perf_counter() - start
        kernel_s = (kernel_s + hostspeed.kernel_seconds()) / 2.0
        rescaled.append(hostspeed.normalized(seconds, kernel_s))
        return recs

    recs = benchmark.pedantic(timed_call, rounds=5, warmup_rounds=1)
    assert len(recs) == lanes
    benchmark.extra_info["rescaled_s"] = rescaled[1:]  # after the warm-up
    peaks = {}
    for steps in PEAK_STEPS:
        tracemalloc.start()
        try:
            run_ergodic_replications(replace(cfg, horizon=steps * DT), algo,
                                     mode, SEED, lanes)
            peaks[str(steps)] = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
    benchmark.extra_info["peak_mb"] = peaks


def _side(paths):
    """{(algo, mode, lanes, steps): (median rescaled microseconds per step
    over the rounds of every file in `paths`, {steps: median traced peak
    MB})}."""
    rounds, peaks = {}, {}
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        for b in data["benchmarks"]:
            info = b["extra_info"]
            steps = info["steps"]
            key = (info["algo"], info["mode"], info["lanes"], steps)
            rounds.setdefault(key, []).extend(
                t / steps * 1e6 for t in info["rescaled_s"])
            for n, mb in info["peak_mb"].items():
                peaks.setdefault(key, {}).setdefault(n, []).append(mb)
    return {key: (statistics.median(v),
                  {n: statistics.median(mb) for n, mb in peaks[key].items()})
            for key, v in rounds.items()}


def merge(before_paths, after_paths) -> dict:
    before, after = _side(before_paths), _side(after_paths)
    rows = []
    for key in sorted(before):
        algo, mode, lanes, steps = key
        (us0, mb0), (us1, mb1) = before[key], after[key]
        rows.append({"algo": algo, "mode": mode, "lanes": lanes, "steps": steps,
                     "before_us_per_step": round(us0, 2),
                     "after_us_per_step": round(us1, 2),
                     "ratio": round(us1 / us0, 3),
                     "before_peak_mb": {n: round(v, 2) for n, v in mb0.items()},
                     "after_peak_mb": {n: round(v, 2) for n, v in mb1.items()}})
    return {"layer": "ergodic step", "seed": SEED, "dt": DT,
            "peak_steps": list(PEAK_STEPS), "rows": rows}


if __name__ == "__main__":
    json.dump(merge(sys.argv[1].split(","), sys.argv[2].split(",")),
              sys.stdout, indent=1)
    print()
