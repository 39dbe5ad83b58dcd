"""Cost of one mean-variance update and of one evaluation episode.

Each benchmark runs one `run_mv_replications` call of the default portfolio
config (K = 25 steps, batch 32, 100 evaluation episodes) at a fixed seed,
per algo at 1 and 20 lanes, once with 200 updates and once with `updates=0`
(evaluation only).  Every timed call sits between two runs of perfbench's
host-speed kernel (`perfbench/hostspeed.py`), and its wall time, and the
time spent in the driver's `_increments`, are rescaled to the reference
speed; the call's minor page faults (`ru_minflt`) are recorded as well.  The
evaluation-only call over its episodes gives the time per evaluation
episode, and the difference of the two calls over the updates gives the
time and the page faults per update.  Run with

    PYTHONPATH=src python -m pytest benchmarks/bench_mv_update.py \\
        --benchmark-json=out.json

The repository's test run does not collect this file.  pytest-benchmark's
own statistics include the kernel runs; the rescaled times are in each
benchmark's `extra_info`.  To compare two checkouts, run it against each
(alternating, as often as the host's noise asks) and merge the JSON files
into medians over all the rounds of each side:

    python benchmarks/bench_mv_update.py before1.json,before2.json \
        after1.json,after2.json
"""

import json
import os
import resource
import statistics
import sys
from dataclasses import replace
from time import perf_counter

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
import hostspeed  # noqa: E402

ALGOS = ("qlearn-td", "qlearn-ml", "sarsa", "pg")
LANES = (1, 20)
SEED = 3
UPDATES = 200


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.mark.parametrize("updates", (UPDATES, 0))
@pytest.mark.parametrize("lanes", LANES)
@pytest.mark.parametrize("algo", ALGOS)
def test_mv_update(benchmark, monkeypatch, algo, lanes, updates):
    # imported here, so that merging results needs no ctql on the path
    from ctql.experiments import mv

    increments = mv._increments
    inc_s = []

    def timed_increments(*args):
        start = perf_counter()
        try:
            return increments(*args)
        finally:
            inc_s[-1] += perf_counter() - start

    monkeypatch.setattr(mv, "_increments", timed_increments)
    cfg = replace(mv.MvExperimentConfig(), updates=updates)
    rounds = []

    def timed_call():
        kernel_s = hostspeed.kernel_seconds()
        inc_s.append(0.0)
        faults = _minflt()
        start = perf_counter()
        recs = mv.run_mv_replications(cfg, algo, SEED, lanes)
        seconds = perf_counter() - start
        faults = _minflt() - faults
        kernel_s = (kernel_s + hostspeed.kernel_seconds()) / 2.0
        rounds.append((hostspeed.normalized(seconds, kernel_s),
                       hostspeed.normalized(inc_s[-1], kernel_s), faults))
        return recs

    recs = benchmark.pedantic(timed_call, rounds=5, warmup_rounds=1)
    assert len(recs) == lanes
    timed = rounds[1:]  # after the warm-up call
    benchmark.extra_info["eval_runs"] = cfg.eval_runs
    benchmark.extra_info["rescaled_s"] = [r[0] for r in timed]
    benchmark.extra_info["increments_s"] = [r[1] for r in timed]
    benchmark.extra_info["minflt"] = [r[2] for r in timed]


def _side(paths):
    """{(algo, lanes, updates): {field: median over the rounds of every file
    in `paths`}, plus eval_runs}."""
    rounds, eval_runs = {}, {}
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        for b in data["benchmarks"]:
            p = b["params"]
            key = (p["algo"], p["lanes"], p["updates"])
            for field in ("rescaled_s", "increments_s", "minflt"):
                rounds.setdefault(key, {}).setdefault(field, []).extend(
                    b["extra_info"][field])
            eval_runs[key] = b["extra_info"]["eval_runs"]
    return {key: dict({f: statistics.median(v) for f, v in fields.items()},
                      eval_runs=eval_runs[key])
            for key, fields in rounds.items()}


def _per_unit(side, algo, lanes):
    """(ms per update, ms per evaluation episode, ms of `_increments` per
    update, minor faults per update) of one side."""
    full, evaluation = side[(algo, lanes, UPDATES)], side[(algo, lanes, 0)]
    return ((full["rescaled_s"] - evaluation["rescaled_s"]) / UPDATES * 1e3,
            evaluation["rescaled_s"] / evaluation["eval_runs"] * 1e3,
            full["increments_s"] / UPDATES * 1e3,
            (full["minflt"] - evaluation["minflt"]) / UPDATES)


def merge(before_paths, after_paths) -> dict:
    before, after = _side(before_paths), _side(after_paths)
    rows = []
    for algo in ALGOS:
        for lanes in LANES:
            b_upd, b_eval, b_inc, b_flt = _per_unit(before, algo, lanes)
            a_upd, a_eval, a_inc, a_flt = _per_unit(after, algo, lanes)
            rows.append({"algo": algo, "lanes": lanes,
                         "before_ms_per_update": round(b_upd, 3),
                         "after_ms_per_update": round(a_upd, 3),
                         "update_ratio": round(a_upd / b_upd, 3),
                         "before_increments_ms": round(b_inc, 3),
                         "after_increments_ms": round(a_inc, 3),
                         "increments_ratio": round(a_inc / b_inc, 3),
                         "before_faults_per_update": round(b_flt, 2),
                         "after_faults_per_update": round(a_flt, 2),
                         "before_ms_per_eval_episode": round(b_eval, 4),
                         "after_ms_per_eval_episode": round(a_eval, 4),
                         "eval_ratio": round(a_eval / b_eval, 3)})
    return {"layer": "mean-variance update and evaluation episode",
            "seed": SEED, "updates": UPDATES, "rows": rows}


if __name__ == "__main__":
    json.dump(merge(sys.argv[1].split(","), sys.argv[2].split(",")),
              sys.stdout, indent=1)
    print()
