"""Fingerprints of the regulator's run records, and a comparison of two.

`write` runs every algo x mode on four configurations (dt 0.1 horizon 200,
dt 0.01 horizon 20, dt 0.1 horizon 1,200, and hot rates 0.2 at dt 0.1
horizon 300) at 1, 7 and 20 lanes, and replays every lane alone; then
off-policy policy gradient at 20 lanes, dt 0.1, horizon 1,200 on seeds
300-339, without replays.  Per cell it writes each
lane's status, divergence step, final parameters (as exact hex floats), the
bits of its metrics and the sha256 of its trace columns, and for each solo
replay whether it equals its lane bit for bit:

    PYTHONPATH=src python benchmarks/fingerprint_regulator.py write OUT.json

`compare` reads two such files, for example from a commit and its parent,
and prints the number of lanes whose record moved, the largest relative
change of a final parameter among `ok` lanes (off-policy policy gradient's,
whose runaway lanes can end `ok`, apart) and among diverged lanes, the
largest relative change of each metric among the other `ok` lanes, every
change of status or divergence step, and every solo replay that differs
from its lane:

    python benchmarks/fingerprint_regulator.py compare BEFORE.json AFTER.json

It exits 1 when a status, a divergence step or a replay differs.
"""

import hashlib
import json
import math
import sys
from dataclasses import replace

LANES = (1, 7, 20)
SEED = 5
SWEEP_SEEDS = range(300, 340)


def _configs():
    from ctql.experiments.ergodic import ErgodicExperimentConfig

    base = ErgodicExperimentConfig()
    return {
        "dt0.1-h200": replace(base, dt=0.1, horizon=200.0),
        "dt0.01-h20": replace(base, dt=0.01, horizon=20.0),
        "dt0.1-h1200": replace(base, dt=0.1, horizon=1200.0),
        "hot0.2": replace(base, dt=0.1, horizon=300.0, alpha_theta=0.2,
                          alpha_psi=0.2, alpha_v=0.2, alpha_phi=0.2),
    }


def _fingerprint(rec) -> dict:
    trace = hashlib.sha256()
    for name in sorted(rec.trace):
        trace.update(name.encode())
        trace.update(memoryview(rec.trace[name]).tobytes())
    return {"status": rec.status, "div": rec.divergence_step,
            "params": {k: float(v).hex() for k, v in sorted(rec.final_params.items())},
            "metrics": {k: float(v).hex() for k, v in sorted(rec.metrics.items())},
            "trace": trace.hexdigest()}


def _cell(cfg, algo, mode, seed, lanes, solo):
    from ctql.envsim import RngStream
    from ctql.experiments.ergodic import run_ergodic, run_ergodic_replications

    prints = [_fingerprint(r) for r in
              run_ergodic_replications(cfg, algo, mode, seed, lanes)]
    replays = {}
    if solo:
        for r in range(lanes):
            rec = run_ergodic(cfg, algo, mode, RngStream(seed, (r, 0)))
            replays[str(r)] = _fingerprint(rec) == prints[r]
    return {"lanes": prints, "solo_equal": replays}


def write(path):
    from ctql.experiments.ergodic import ALGOS, MODES

    cells = {}
    for name, cfg in _configs().items():
        for algo in ALGOS:
            for mode in MODES:
                for lanes in LANES:
                    key = f"{algo}/{mode}/{name}/seed{SEED}/{lanes}"
                    cells[key] = _cell(cfg, algo, mode, SEED, lanes, True)
    sweep = _configs()["dt0.1-h1200"]
    for seed in SWEEP_SEEDS:
        cells[f"pg/off-policy/dt0.1-h1200/seed{seed}/20"] = _cell(
            sweep, "pg", "off-policy", seed, 20, False)
    with open(path, "w") as fh:
        json.dump(cells, fh, indent=0, sort_keys=True)


def _relative(a: str, b: str) -> float:
    x, y = float.fromhex(a), float.fromhex(b)
    if x == y:
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(y - x) / max(abs(x), abs(y))


def compare(before_path, after_path) -> int:
    with open(before_path) as fh:
        before = json.load(fh)
    with open(after_path) as fh:
        after = json.load(fh)
    if sorted(before) != sorted(after):
        print("the files hold different cells")
        return 1
    lanes = moved = 0
    worst = {"ok": (0.0, ""), "ok, pg off-policy": (0.0, ""), "NA": (0.0, "")}
    worst_metric = {}
    changes, replays = [], []
    for key in sorted(before):
        for side, cell in (("before", before[key]), ("after", after[key])):
            replays += [f"{side} {key} lane {r}" for r, same in
                        sorted(cell["solo_equal"].items()) if not same]
        for r, (b, a) in enumerate(zip(before[key]["lanes"], after[key]["lanes"])):
            lanes += 1
            moved += a != b
            if (a["status"], a["div"]) != (b["status"], b["div"]):
                changes.append(f"{key} lane {r}: {b['status']} {b['div']} -> "
                               f"{a['status']} {a['div']}")
                continue
            group = b["status"]
            if group == "ok" and key.startswith("pg/off-policy/"):
                group = "ok, pg off-policy"
            for name in b["params"]:
                rel = _relative(b["params"][name], a["params"][name])
                if rel > worst[group][0]:
                    worst[group] = (rel, f"{key} lane {r} {name}")
            if group == "ok":
                for name in b["metrics"]:
                    rel = _relative(b["metrics"][name], a["metrics"][name])
                    if rel >= worst_metric.get(name, (0.0, ""))[0]:
                        worst_metric[name] = (rel, f"{key} lane {r}")
    print(f"cells {len(before)}, lanes {lanes}, moved {moved}")
    for status, (rel, where) in worst.items():
        print(f"largest relative parameter change, {status} lanes: {rel:.2e}"
              + (f" ({where})" if where else ""))
    for name, (rel, where) in sorted(worst_metric.items()):
        print(f"largest relative {name} change, ok lanes: {rel:.2e}"
              + (f" ({where})" if rel else ""))
    print(f"status or divergence step changes: {len(changes)}")
    for line in changes:
        print("  " + line)
    print(f"solo replays that differ from their lane: {len(replays)}")
    for line in replays:
        print("  " + line)
    return 1 if changes or replays else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "write":
        write(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
