"""Full mean-variance comparison tables.

Sweeps every market configuration (mu in {0, +-0.1, +-0.3, +-0.5}, sigma in
{0.1, 0.2, 0.3, 0.4}) for all four algorithms at a chosen step size and
prints mean / variance / Sharpe of terminal wealth per cell.  This is a
long-running reproduction script, not part of the test suite: at the
defaults one market cell (mu 0, sigma 0.1, all four algorithms) took 77 to
87 s on a 2-core Xeon VM, so the 28 cells take about 36 to 41 minutes
(still derived from that one cell, not timed as a sweep).  Reduce --reps
or pass a coarser --dt for a quicker pass.

Run as:  python -m ctql.experiments.mv_table --dt 0.04 --reps 20
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

from .cli import nonnegative_int, positive_int
from .mv import MvExperimentConfig, MV_ALGOS, run_mv_replications
from .records import aggregate_metrics

MUS = (0.0, 0.1, -0.1, 0.3, -0.3, 0.5, -0.5)
SIGMAS = (0.1, 0.2, 0.3, 0.4)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dt", type=float, default=1.0 / 25.0)
    ap.add_argument("--reps", type=positive_int, default=20)
    ap.add_argument("--seed", type=nonnegative_int, default=0)
    ap.add_argument("--episodes", type=int, default=20000)
    ap.add_argument("--algos", nargs="+", default=list(MV_ALGOS),
                    choices=MV_ALGOS)
    ap.add_argument("--out", default=None, help="optional JSON dump path")
    args = ap.parse_args(argv)
    try:
        base = MvExperimentConfig(dt=args.dt, updates=args.episodes)
    except ValueError as exc:
        ap.error(str(exc))

    table = {}
    for algo in args.algos:
        for mu in MUS:
            for sigma in SIGMAS:
                cfg = replace(base, mu=mu, sigma=sigma)
                records = run_mv_replications(cfg, algo, args.seed, args.reps)
                agg = aggregate_metrics(records)
                means = agg.get("metric_means", {})
                cell = {
                    "completed": agg["completed"],
                    "diverged": agg["diverged"],
                    "mean": means.get("mean", "nan"),
                    "variance": means.get("variance", "nan"),
                    "sharpe": means.get("sharpe", "nan"),
                }
                table[f"{algo}|mu={mu:g}|sigma={sigma:g}"] = cell
                sr = cell["sharpe"]
                sr_s = f"{sr:7.3f}" if isinstance(sr, float) else f"{sr:>7}"
                print(f"{algo:10s} mu={mu:+.1f} sigma={sigma:.1f}  "
                      f"SR={sr_s}  ok={cell['completed']}/{args.reps}",
                      flush=True)
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump({"dt": args.dt, "episodes": args.episodes,
                       "seed": args.seed, "cells": table}, fh,
                      indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
