"""Per-step cost of the ergodic driver, one call per algo x mode x lanes.

Each benchmark times one `run_ergodic_replications` call of 2,000 steps
(dt 0.1, horizon 200) at a fixed seed, and records the steps it ran, so the
per-step time is the call time over `extra_info["steps"]`.  Run with

    PYTHONPATH=src python -m pytest benchmarks/bench_ergodic_step.py \\
        --benchmark-json=out.json

The repository's test run does not collect this file.  To compare two
checkouts, run it against each (alternating, as often as the host's noise
asks) and merge the JSON files into median microseconds per step over all
the rounds of each side:

    python benchmarks/bench_ergodic_step.py before1.json,before2.json \
        after1.json,after2.json
"""

import json
import statistics
import sys
from dataclasses import replace

import pytest

LANES = (1, 20, 200)
SEED = 3
HORIZON = 200.0
DT = 0.1


@pytest.mark.parametrize("lanes", LANES)
@pytest.mark.parametrize("mode", ("on-policy", "off-policy"))
@pytest.mark.parametrize("algo", ("qlearn-online", "sarsa", "pg"))
def test_ergodic_step(benchmark, algo, mode, lanes):
    # imported here, so that merging results needs no ctql on the path
    from ctql.experiments.ergodic import (ErgodicExperimentConfig,
                                          run_ergodic_replications)

    cfg = replace(ErgodicExperimentConfig(), dt=DT, horizon=HORIZON)
    benchmark.extra_info["steps"] = cfg.steps
    recs = benchmark.pedantic(run_ergodic_replications,
                              args=(cfg, algo, mode, SEED, lanes),
                              rounds=5, warmup_rounds=1)
    assert len(recs) == lanes


def _per_step_us(paths):
    """{(algo, mode, lanes): median microseconds per driver step} over the
    rounds of every file in `paths`."""
    rounds = {}
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        for b in data["benchmarks"]:
            p = b["params"]
            steps = b["extra_info"]["steps"]
            rounds.setdefault((p["algo"], p["mode"], p["lanes"]), []).extend(
                t / steps * 1e6 for t in b["stats"]["data"])
    return {key: statistics.median(v) for key, v in rounds.items()}


def merge(before_paths, after_paths) -> dict:
    before, after = _per_step_us(before_paths), _per_step_us(after_paths)
    rows = []
    for key in sorted(before):
        algo, mode, lanes = key
        rows.append({"algo": algo, "mode": mode, "lanes": lanes,
                     "before_us_per_step": round(before[key], 2),
                     "after_us_per_step": round(after[key], 2),
                     "ratio": round(after[key] / before[key], 3)})
    return {"layer": "ergodic step", "seed": SEED, "dt": DT, "steps":
            int(round(HORIZON / DT)), "rows": rows}


if __name__ == "__main__":
    json.dump(merge(sys.argv[1].split(","), sys.argv[2].split(",")),
              sys.stdout, indent=1)
    print()
