"""Cost of one mean-variance update and of one evaluation episode.

Each benchmark times one `run_mv_replications` call of the default portfolio
config (K = 25 steps, batch 32, 100 evaluation episodes) at a fixed seed,
per algo at 1 and 20 lanes, once with 200 updates and once with `updates=0`
(evaluation only).  The evaluation-only call over its episodes gives the
time per evaluation episode, and the difference of the two calls over the
updates gives the time per update.  Run with

    PYTHONPATH=src python -m pytest benchmarks/bench_mv_update.py \\
        --benchmark-json=out.json

The repository's test run does not collect this file.  To compare two
checkouts, run it against each (alternating, as often as the host's noise
asks) and merge the JSON files into median milliseconds per update and per
evaluation episode over all the rounds of each side:

    python benchmarks/bench_mv_update.py before1.json,before2.json \
        after1.json,after2.json
"""

import json
import statistics
import sys
from dataclasses import replace

import pytest

ALGOS = ("qlearn-td", "qlearn-ml", "sarsa", "pg")
LANES = (1, 20)
SEED = 3
UPDATES = 200


@pytest.mark.parametrize("updates", (UPDATES, 0))
@pytest.mark.parametrize("lanes", LANES)
@pytest.mark.parametrize("algo", ALGOS)
def test_mv_update(benchmark, algo, lanes, updates):
    # imported here, so that merging results needs no ctql on the path
    from ctql.experiments.mv import MvExperimentConfig, run_mv_replications

    cfg = replace(MvExperimentConfig(), updates=updates)
    benchmark.extra_info["eval_runs"] = cfg.eval_runs
    recs = benchmark.pedantic(run_mv_replications,
                              args=(cfg, algo, SEED, lanes),
                              rounds=5, warmup_rounds=1)
    assert len(recs) == lanes


def _per_call_s(paths):
    """{(algo, lanes, updates): (median seconds per call, eval_runs)} over
    the rounds of every file in `paths`."""
    rounds, eval_runs = {}, {}
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        for b in data["benchmarks"]:
            p = b["params"]
            key = (p["algo"], p["lanes"], p["updates"])
            rounds.setdefault(key, []).extend(b["stats"]["data"])
            eval_runs[key] = b["extra_info"]["eval_runs"]
    return {key: (statistics.median(v), eval_runs[key])
            for key, v in rounds.items()}


def _ms(calls, algo, lanes):
    """(ms per update, ms per evaluation episode) of one side."""
    full, _ = calls[(algo, lanes, UPDATES)]
    evaluation, episodes = calls[(algo, lanes, 0)]
    return ((full - evaluation) / UPDATES * 1e3, evaluation / episodes * 1e3)


def merge(before_paths, after_paths) -> dict:
    before, after = _per_call_s(before_paths), _per_call_s(after_paths)
    rows = []
    for algo in ALGOS:
        for lanes in LANES:
            b_upd, b_eval = _ms(before, algo, lanes)
            a_upd, a_eval = _ms(after, algo, lanes)
            rows.append({"algo": algo, "lanes": lanes,
                         "before_ms_per_update": round(b_upd, 3),
                         "after_ms_per_update": round(a_upd, 3),
                         "update_ratio": round(a_upd / b_upd, 3),
                         "before_ms_per_eval_episode": round(b_eval, 4),
                         "after_ms_per_eval_episode": round(a_eval, 4),
                         "eval_ratio": round(a_eval / b_eval, 3)})
    return {"layer": "mean-variance update and evaluation episode",
            "seed": SEED, "updates": UPDATES, "rows": rows}


if __name__ == "__main__":
    json.dump(merge(sys.argv[1].split(","), sys.argv[2].split(",")),
              sys.stdout, indent=1)
    print()
