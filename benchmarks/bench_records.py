"""Memory held by run records, and the time to write them out.

Each benchmark runs one `run_ergodic_replications` call in lq-wide's
configuration (400 lanes, dt 0.1, horizon 500, 200 trace rows of 8
columns) at a fixed seed under `tracemalloc`, which sees numpy's buffers
and the records' columns.  It records the bytes the returned records still
hold (`extra_info["held_mb"]`), the call's traced peak
(`extra_info["peak_mb"]`), and the held bytes per trace value
(`extra_info["held_b_per_value"]`).  It then times `write_summary` of those
records, one summary and 800 trace CSV files, with tracing off.  A warm-up
call at one lane runs first, so the held bytes are the records' alone.  Run
with

    PYTHONPATH=src python -m pytest benchmarks/bench_records.py \\
        --benchmark-json=out.json

The repository's test run does not collect this file.  To compare two
checkouts, run it against each (alternating, as often as the host's noise
asks) and merge the JSON files into the median held and peak MB of each
side's runs, and the median and quartiles of the write seconds over all the
rounds of each side:

    python benchmarks/bench_records.py before1.json,before2.json \\
        after1.json,after2.json
"""

import json
import statistics
import sys
import tracemalloc
from dataclasses import replace

import pytest

LANES = 400
SEED = 17
HORIZON = 500.0
DT = 0.1


@pytest.mark.parametrize("algo", ("qlearn-online", "sarsa", "pg"))
def test_records(benchmark, algo, tmp_path):
    # imported here, so that merging results needs no ctql on the path
    from ctql.experiments.ergodic import (ErgodicExperimentConfig,
                                          run_ergodic_replications)
    from ctql.experiments.records import config_dict, write_summary

    cfg = replace(ErgodicExperimentConfig(), dt=DT, horizon=HORIZON)
    run_ergodic_replications(replace(cfg, horizon=20.0), algo, "on-policy", SEED, 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        recs = run_ergodic_replications(cfg, algo, "on-policy", SEED, LANES)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    values = sum(len(column) for rec in recs for column in rec.trace.values())
    benchmark.extra_info["held_mb"] = (held - before) / 2 ** 20
    benchmark.extra_info["peak_mb"] = (peak - before) / 2 ** 20
    benchmark.extra_info["held_b_per_value"] = (held - before) / values
    info = {**config_dict(cfg), "algo": algo, "mode": "on-policy", "master_seed": SEED}
    benchmark.pedantic(lambda: write_summary(tmp_path, info, recs),
                       rounds=5, warmup_rounds=1)


def _runs(paths):
    """{algo: (write seconds of every round, [(held, peak, B/value)] a run)}."""
    write, mem = {}, {}
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        for b in data["benchmarks"]:
            algo = b["params"]["algo"]
            write.setdefault(algo, []).extend(b["stats"]["data"])
            info = b["extra_info"]
            mem.setdefault(algo, []).append(
                (info["held_mb"], info["peak_mb"], info["held_b_per_value"]))
    return {algo: (write[algo], mem[algo]) for algo in write}


def _side(write, mem) -> dict:
    q1, med, q3 = statistics.quantiles(write, n=4)
    held, peak, per_value = (statistics.median(col) for col in zip(*mem))
    return {"held_mb": round(held, 2), "peak_mb": round(peak, 2),
            "held_b_per_value": round(per_value, 2),
            "write_s": round(med, 4), "write_s_quartiles": [round(q1, 4), round(q3, 4)],
            "runs": len(mem), "write_rounds": len(write)}


def merge(before_paths, after_paths) -> dict:
    before, after = _runs(before_paths), _runs(after_paths)
    rows = []
    for algo in sorted(before):
        b, a = _side(*before[algo]), _side(*after[algo])
        rows.append({"algo": algo, "before": b, "after": a,
                     "held_ratio": round(a["held_mb"] / b["held_mb"], 3),
                     "peak_ratio": round(a["peak_mb"] / b["peak_mb"], 3),
                     "write_ratio": round(a["write_s"] / b["write_s"], 3)})
    return {"layer": "run records", "rows": rows}


if __name__ == "__main__":
    json.dump(merge(sys.argv[1].split(","), sys.argv[2].split(",")),
              sys.stdout, indent=1)
    print()
