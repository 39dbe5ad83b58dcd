"""Fingerprints of the portfolio's run records, and a comparison of two.

`write` runs every algorithm for 500 updates on seven configurations (the
defaults, hot rates 0.23 and 0.25 with alpha_w 0.5 that leave some lanes
`NA`, dt 0.05, batch 7, `multiplier_every` 3 and the exploratory readout)
at 1, 7 and 20 lanes, seed 5, and replays every lane alone.  Per cell it
writes what `fingerprint_regulator` writes: each lane's status, divergence
step, final parameters (as exact hex floats), the bits of its metrics and
the sha256 of its trace columns, and for each solo replay whether it equals
its lane bit for bit:

    PYTHONPATH=src python benchmarks/fingerprint_portfolio.py write OUT.json

`compare` is `fingerprint_regulator`'s: it prints the number of lanes whose
record moved, the largest relative change of an `ok` lane's final parameter
and of each of its metrics (the Sharpe ratio among them), every change of
status or divergence step, and every solo replay that differs from its
lane, and exits 1 when a status, a divergence step or a replay differs:

    python benchmarks/fingerprint_portfolio.py compare BEFORE.json AFTER.json
"""

import json
import os
import sys
from dataclasses import replace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from fingerprint_regulator import LANES, _fingerprint, compare  # noqa: E402

SEED = 5
UPDATES = 500


def _configs():
    from ctql.experiments.mv import MvExperimentConfig

    base = MvExperimentConfig(updates=UPDATES)

    def hot(rate):
        return replace(base, alpha_theta=rate, alpha_psi=rate, alpha_phi=rate,
                       alpha_w=0.5)

    return {
        "default": base,
        "hot0.23": hot(0.23),
        "hot0.25": hot(0.25),
        "dt0.05": replace(base, dt=0.05),
        "batch7": replace(base, batch=7),
        "multiplier3": replace(base, multiplier_every=3),
        "exploratory": replace(base, eval_exploratory=True),
    }


def _cell(cfg, algo, lanes):
    from ctql.envsim import RngStream
    from ctql.experiments.mv import run_mv, run_mv_replications

    prints = [_fingerprint(r) for r in run_mv_replications(cfg, algo, SEED, lanes)]
    replays = {str(r): _fingerprint(run_mv(cfg, algo, RngStream(SEED, (r, 0)))) == prints[r]
               for r in range(lanes)}
    return {"lanes": prints, "solo_equal": replays}


def write(path):
    from ctql.experiments.mv import MV_ALGOS

    cells = {}
    for name, cfg in _configs().items():
        for algo in MV_ALGOS:
            for lanes in LANES:
                cells[f"{algo}/episodic/{name}/seed{SEED}/{lanes}"] = _cell(cfg, algo, lanes)
    with open(path, "w") as fh:
        json.dump(cells, fh, indent=0, sort_keys=True)


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "write":
        write(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
