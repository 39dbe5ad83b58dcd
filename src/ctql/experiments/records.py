"""Run records and deterministic file output for experiment drivers."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
from array import array
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

_CSV_FLOAT = "%.17g"
# repeated to a column's length, which allocates the array at its exact size
_ONE_VALUE = array("d", [0.0])


@dataclass
class RunRecord:
    """Outcome of one replication of an experiment.

    `trace` maps each column name to a packed float64 `array('d')` (see
    `packed`); `final_params` and `metrics` map names to Python floats.
    """

    algo: str
    mode: str
    replication: int
    master_seed: int
    status: str = "ok"  # "ok" or "NA"
    divergence_step: Optional[int] = None
    final_params: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    trace: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "algo": self.algo,
            "mode": self.mode,
            "replication": self.replication,
            "master_seed": self.master_seed,
            "status": self.status,
            "divergence_step": self.divergence_step,
            "final_params": {k: _json_float(v) for k, v in sorted(self.final_params.items())},
            "metrics": {k: _json_float(v) for k, v in sorted(self.metrics.items())},
        }


def packed(column) -> array:
    """A trace column as packed float64, bit for bit: 8 bytes a value,
    where a list of Python floats takes 32, and no spare capacity
    (`array('d', bytes)` over-allocates by about n/16)."""
    values = np.asarray(column, dtype=np.float64).ravel()
    out = _ONE_VALUE * values.size
    memoryview(out)[:] = values
    return out


def _json_float(v):
    if isinstance(v, bool):  # an int, but JSON has its own booleans
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    v = float(v)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def aggregate_metrics(records: Sequence[RunRecord]) -> dict:
    """Mean of each metric over the replications that finished, folded in
    replication order so the result does not depend on scheduling."""
    ok = [r for r in sorted(records, key=lambda r: r.replication) if r.status == "ok"]
    out = {"replications": len(records), "completed": len(ok),
           "diverged": len(records) - len(ok)}
    if not ok:
        return out
    keys = sorted(ok[0].metrics)
    means = {}
    for key in keys:
        total = 0.0
        count = 0
        for rec in ok:
            v = float(rec.metrics.get(key, float("nan")))
            if math.isfinite(v):
                total += v
                count += 1
        means[key] = _json_float(total / count) if count else "nan"
    out["metric_means"] = means
    return out


def write_trace_csv(path, trace: dict) -> None:
    """Columns in sorted key order except a leading update/time column."""
    if not trace:
        return
    keys = list(trace.keys())
    lead = [k for k in ("j", "t") if k in keys]
    rest = sorted(k for k in keys if k not in lead)
    cols = lead + rest
    # the rows csv.writer would write: no formatted float needs quoting
    row = ",".join([_CSV_FLOAT] * len(cols)) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(cols)
        fh.writelines(row % vals for vals in zip(*(trace[c] for c in cols)))


def write_summary(out_dir, config: dict, records: Sequence[RunRecord]) -> str:
    """summary.json plus per-replication trace files under out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "config": {k: _json_float(v) if isinstance(v, (int, float, np.floating, np.integer)) else v
                   for k, v in sorted(config.items())},
        "replications": [r.to_dict() for r in sorted(records, key=lambda r: r.replication)],
        "aggregate": aggregate_metrics(records),
    }
    path = os.path.join(out_dir, "summary.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for rec in records:
        if rec.trace:
            reward_keys = [k for k in rec.trace if k.startswith("reward")]
            param_keys = [k for k in rec.trace if not k.startswith("reward")]
            lead = [k for k in ("j", "t") if k in rec.trace]
            write_trace_csv(os.path.join(out_dir, f"trace_{rec.replication}.csv"),
                            {k: rec.trace[k] for k in param_keys})
            if reward_keys:
                write_trace_csv(os.path.join(out_dir, f"rewards_{rec.replication}.csv"),
                                {k: rec.trace[k] for k in lead + reward_keys})
    return path


def config_dict(cfg) -> dict:
    """Flatten a config dataclass to JSON-friendly scalars."""
    out = {}
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        if callable(v):
            out[f.name] = getattr(v, "__name__", "callable")
        elif dataclasses.is_dataclass(v):
            out.update({f"{f.name}.{k}": vv for k, vv in config_dict(v).items()})
        else:
            out[f.name] = v
    return out
