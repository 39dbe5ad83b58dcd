"""The benchmark's workloads.

Each workload sets itself up in its constructor (configs, and the LQ oracle
for the regulator workloads), then runs rounds.  A round is a fixed list of
operations, each one call into ctql's public entry points, and every round
of a run repeats the same operations on the same inputs.  After a round the
benchmark counts the simulated lane-steps (`measure`) and checks the outputs
against `exact` (`check`, which returns the failed checks and counts replays
that differ from their lane as failed operations); neither is timed.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import sys
import tempfile
import traceback
from time import perf_counter
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ctql import oracle
from ctql.experiments import ergodic, mv, records

import exact
import hostspeed

LQ_LANES = 20
WIDE_LANES = 400
MV_LANES = 20
MV_UPDATES = 200
# The off-policy SARSA config of lq-gates runs at this master seed and
# replays lane 0, whatever --seed is.  Its solo replay fails every time (the
# solo driver keys the learner stream (r, 0, 1), the lane driver (r, 1)), and
# a failure the benchmark counts must not depend on the seed.
FAULT_SEED = 5
# Out-of-sample mean terminal wealth against its exact mean, in standard
# errors of the eval_runs-episode mean.  A set of about 70 runs checks some
# 1,400 independent lanes: 4 SE would fail a correct program somewhere in it
# with a probability of order 10%, 5 SE with under 0.1%.
MEAN_TOL_SE = 5.0


@dataclass
class RoundStats:
    """Work one round did, counted from the drivers' outputs."""

    lane_steps: int = 0          # simulated Euler lane-steps, all drivers
    erg_live: int = 0            # regulator lane-steps up to divergence
    erg_ran_lane_steps: int = 0  # regulator lane-steps the driver ran
    erg_steps_ran: int = 0       # regulator steps the driver ran
    mv_updates: int = 0          # updates of the lane-batched portfolio calls
    mv_eval_episodes: int = 0    # evaluation episodes of those calls
    records_bytes: int = 0
    records_files: int = 0

    def add(self, other: "RoundStats") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


def ergodic_lane_steps(recs, steps: int, dt: float) -> RoundStats:
    """Lane-steps of one regulator driver call.

    A lane that diverged at step d ran d + 1 live steps, a healthy lane all
    `steps`.  The steps the driver ran are read from the last time of the
    returned trace, which records every steps // trace_points steps.
    """
    live = sum(steps if r.divergence_step is None else r.divergence_step + 1
               for r in recs)
    t = recs[0].trace["t"]
    ran = int(round(t[-1] / dt)) if t else 0
    return RoundStats(lane_steps=live, erg_live=live,
                      erg_ran_lane_steps=ran * len(recs), erg_steps_ran=ran)


def mv_lane_steps(cfg, lanes: int) -> int:
    """Training plus evaluation lane-steps of one portfolio driver call."""
    return lanes * cfg.steps * (cfg.updates * cfg.batch + cfg.eval_runs)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def same_record(a, b) -> bool:
    """Bit-for-bit equality of two run records, NaNs included."""
    if (a.status, a.divergence_step, a.replication, a.master_seed) != \
            (b.status, b.divergence_step, b.replication, b.master_seed):
        return False
    for x, y in ((a.final_params, b.final_params), (a.metrics, b.metrics),
                 (a.trace, b.trace)):
        if sorted(x) != sorted(y) or any(_bits(x[k]) != _bits(y[k]) for k in x):
            return False
    return True


class Spec(NamedTuple):
    key: str
    algo: str
    mode: str
    cfg: object
    seed: int
    lane: int


class Workload:
    """Shared bookkeeping: operation counts and the timed call wrapper."""

    def __init__(self, tracer, out_root: str):
        self.tracer = tracer
        self.out_root = out_root
        self.attempted = 0
        self.failed = 0
        self.setup_problems = []
        # (span, seconds, host-speed kernel seconds) of each operation
        self.op_times = []

    def call(self, span: str, fn, *args):
        """One operation: a timed call into ctql.  An exception fails it."""
        self.attempted += 1
        kernel_s = hostspeed.kernel_seconds()
        start = perf_counter()
        try:
            with self.tracer.span(span):
                return fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            seconds = perf_counter() - start
            kernel_s = (kernel_s + hostspeed.kernel_seconds()) / 2.0
            self.op_times.append((span, seconds, kernel_s))

    def _solve_oracle(self) -> None:
        with self.tracer.span("oracle.solve"):
            sol = oracle.lq_ergodic_fixed_point()
        err = max(abs(sol.psi_star[0] - exact.PSI_STAR[0]),
                  abs(sol.psi_star[1] - exact.PSI_STAR[1]),
                  abs(sol.variance - exact.S2_STAR),
                  abs(sol.V_star - exact.OPTIMAL_VALUE))
        if not err < 1e-12:
            self.setup_problems.append(f"oracle off the closed form by {err:.3g}")

    def check_replay(self, spec, lane_recs, solo) -> None:
        """A solo replay that is not bit-identical to its lane has failed."""
        if solo is None or lane_recs is None:
            return  # the failed call is already counted
        if not same_record(lane_recs[spec.lane], solo):
            self.failed += 1
            print(f"perfbench: {spec.key}: solo replay of lane {spec.lane} "
                  "differs from the lane", file=sys.stderr)

    def probe(self) -> None:
        """Extra traced-only calls that some per-layer metrics need."""

    def cleanup(self, out) -> None:
        pass


def _lq_values(spec: Spec, recs):
    """Exact long-run value of each lane's policy; None for NA lanes."""
    out = []
    for r in recs:
        if r.status != "ok":
            out.append(None)
            continue
        k, m, s2 = exact.lq_lane_policy(spec.algo, r.final_params, spec.cfg.dt)
        out.append(exact.lq_policy_value(k, m, s2))
    return out


def _check_improves(spec: Spec, recs, closer: bool) -> list:
    """Every lane ends ok, above the initial N(0, 1) policy and, for
    q-learning, closer to psi* than the initial (0, 0)."""
    problems = []
    start = exact.psi_distance(0.0, 0.0)
    for r in recs:
        if r.status != "ok":
            problems.append(f"{spec.key} lane {r.replication}: NA")
            continue
        k, m, s2 = exact.lq_lane_policy(spec.algo, r.final_params, spec.cfg.dt)
        v = exact.lq_policy_value(k, m, s2)
        if not v > exact.INITIAL_VALUE:
            problems.append(f"{spec.key} lane {r.replication}: value {v:.4f} "
                            f"not above initial {exact.INITIAL_VALUE:.4f}")
        if closer and not exact.psi_distance(k, m) < start:
            problems.append(f"{spec.key} lane {r.replication}: not closer to psi*")
    return problems


class LqGates(Workload):
    """The acceptance gates' regulator mix at 20 lanes, shortened."""

    name = "lq-gates"

    def __init__(self, seed, tracer, out_root):
        super().__init__(tracer, out_root)
        self._solve_oracle()
        base = ergodic.ErgodicExperimentConfig()
        coarse = replace(base, dt=0.1, horizon=200.0)
        fine = replace(base, dt=0.01, horizon=20.0)
        pg = replace(base, dt=0.1, horizon=1200.0)
        lane = seed % LQ_LANES
        self.specs = [
            Spec("q-on-dt0.1", "qlearn-online", "on-policy", coarse, seed, lane),
            Spec("q-off-dt0.1", "qlearn-online", "off-policy", coarse, seed, lane),
            Spec("q-on-dt0.01", "qlearn-online", "on-policy", fine, seed, lane),
            Spec("q-off-dt0.01", "qlearn-online", "off-policy", fine, seed, lane),
            Spec("sarsa-on-dt0.1", "sarsa", "on-policy", coarse, seed, lane),
            Spec("sarsa-on-dt0.01", "sarsa", "on-policy", fine, seed, lane),
            Spec("sarsa-off-dt0.01", "sarsa", "off-policy", fine, FAULT_SEED, 0),
            Spec("pg-off-dt0.1", "pg", "off-policy", pg, seed, lane),
        ]

    def run_round(self):
        out = []
        for s in self.specs:
            recs = self.call("ergodic.replications", ergodic.run_ergodic_replications,
                             s.cfg, s.algo, s.mode, s.seed, LQ_LANES)
            solo = self.call("ergodic.solo", ergodic.run_ergodic, s.cfg, s.algo,
                             s.mode, ergodic.RngStream(s.seed, (s.lane, 0)))
            out.append((s, recs, solo))
        return out

    def measure(self, out) -> RoundStats:
        stats = RoundStats()
        for s, recs, solo in out:
            if recs is not None:
                stats.add(ergodic_lane_steps(recs, s.cfg.steps, s.cfg.dt))
            if solo is not None:
                stats.add(ergodic_lane_steps([solo], s.cfg.steps, s.cfg.dt))
        return stats

    def check(self, out):
        problems, values = [], {}
        for s, recs, solo in out:
            self.check_replay(s, recs, solo)
            if recs is None:
                continue
            values[s.key] = _lq_values(s, recs)
            if s.algo == "qlearn-online":
                problems += _check_improves(s, recs, closer=True)
            elif s.algo == "pg":
                # criterion 5: off-policy PG does not learn.  A lane either
                # diverges or ends with a policy worse than the initial one
                for r, v in zip(recs, values[s.key]):
                    if r.status == "NA" and r.divergence_step is None:
                        problems.append(f"{s.key} lane {r.replication}: NA "
                                        "without a divergence step")
                    if v is not None and not v < exact.INITIAL_VALUE:
                        problems.append(f"{s.key} lane {r.replication}: learned "
                                        f"value {v:.4f} off-policy")
        # criterion 4: at the fine step q-learning beats its paired SARSA lane
        q, sa = values.get("q-on-dt0.01"), values.get("sarsa-on-dt0.01")
        if q is not None and sa is not None:
            for lane, (vq, vs) in enumerate(zip(q, sa)):
                if vq is None or (vs is not None and not vq > vs):
                    problems.append(f"dt 0.01 lane {lane}: q-learning "
                                    "does not beat SARSA")
        return problems


class LqWide(Workload):
    """`ctql lq` for each algorithm at a wide lane count, then its summary."""

    name = "lq-wide"

    def __init__(self, seed, tracer, out_root):
        super().__init__(tracer, out_root)
        self._solve_oracle()
        cfg = replace(ergodic.ErgodicExperimentConfig(), dt=0.1, horizon=500.0)
        self.specs = [Spec(algo, algo, "on-policy", cfg, seed, seed % WIDE_LANES)
                      for algo in ergodic.ALGOS]

    @staticmethod
    def _summarize(out_dir, spec: Spec, recs):
        """What the CLI does with the records: config, summary files,
        aggregate."""
        info = {"algo": spec.algo, "mode": spec.mode, "master_seed": spec.seed}
        path = records.write_summary(
            out_dir, {**records.config_dict(spec.cfg), **info}, recs)
        records.aggregate_metrics(recs)
        return path

    def run_round(self):
        out = []
        for s in self.specs:
            recs = self.call("ergodic.replications", ergodic.run_ergodic_replications,
                             s.cfg, s.algo, s.mode, s.seed, WIDE_LANES)
            out_dir = tempfile.mkdtemp(prefix=s.algo + "-", dir=self.out_root)
            path = self.call("records.write", self._summarize, out_dir, s, recs)
            out.append((s, recs, out_dir, path))
        return out

    def measure(self, out) -> RoundStats:
        stats = RoundStats()
        for s, recs, out_dir, _ in out:
            if recs is not None:
                stats.add(ergodic_lane_steps(recs, s.cfg.steps, s.cfg.dt))
            for name in os.listdir(out_dir):
                stats.records_files += 1
                stats.records_bytes += os.path.getsize(os.path.join(out_dir, name))
        return stats

    def check(self, out):
        problems = []
        for s, recs, out_dir, path in out:
            if recs is None or path is None:
                continue
            problems += _check_improves(s, recs, closer=s.algo == "qlearn-online")
            problems += _check_summary(s, recs, out_dir, path)
        return problems

    def cleanup(self, out) -> None:
        for _, _, out_dir, _ in out:
            shutil.rmtree(out_dir, ignore_errors=True)


def _json_value(v):
    v = float(v)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def _check_summary(spec: Spec, recs, out_dir, path) -> list:
    """summary.json and the per-lane files against the records in memory."""
    problems = []
    with open(path) as fh:
        payload = json.load(fh)
    reps = payload["replications"]
    if [d["replication"] for d in reps] != list(range(len(recs))):
        return [f"{spec.key}: summary lists replications "
                f"{[d['replication'] for d in reps][:5]}..."]
    for r, d in zip(recs, reps):
        if d["final_params"] != {k: _json_value(v) for k, v in r.final_params.items()}:
            problems.append(f"{spec.key}: summary params of lane {r.replication} differ")
            break
    ok = [r for r in recs if r.status == "ok"]
    agg = payload["aggregate"]
    if (agg["completed"], agg["diverged"]) != (len(ok), len(recs) - len(ok)):
        problems.append(f"{spec.key}: aggregate counts {agg['completed']}/{agg['diverged']}")
    if ok:
        mean = math.fsum(r.metrics["avg_reward"] for r in ok) / len(ok)
        got = agg["metric_means"]["avg_reward"]
        if not abs(got - mean) <= 1e-9 * abs(mean):
            problems.append(f"{spec.key}: aggregate avg_reward {got} vs {mean}")
    expected = {"summary.json"}
    for r in recs:
        expected |= {f"trace_{r.replication}.csv", f"rewards_{r.replication}.csv"}
    if set(os.listdir(out_dir)) != expected:
        problems.append(f"{spec.key}: output files differ from one summary and "
                        "two CSVs per lane")
        return problems
    lane = recs[spec.lane]
    with open(os.path.join(out_dir, f"trace_{spec.lane}.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    last = dict(zip(rows[0], rows[-1]))
    if len(rows) != len(lane.trace["t"]) + 1 or any(
            float(last[k]) != v for k, v in lane.final_params.items()
            if math.isfinite(v)):
        problems.append(f"{spec.key}: trace_{spec.lane}.csv does not end at "
                        "the lane's final parameters")
    return problems


class MvTrain(Workload):
    """Portfolio training and out-of-sample evaluation at 20 lanes."""

    name = "mv-train"

    def __init__(self, seed, tracer, out_root):
        super().__init__(tracer, out_root)
        base = replace(mv.MvExperimentConfig(), updates=MV_UPDATES)
        lane = seed % MV_LANES
        markets = [("qlearn-td", -0.5, 0.1), ("qlearn-td", 0.5, 0.1),
                   ("qlearn-td", -0.5, 0.2), ("qlearn-ml", -0.5, 0.1),
                   ("sarsa", -0.5, 0.1), ("pg", -0.5, 0.1)]
        self.specs = [Spec(f"{algo} mu={mu} sigma={sigma}", algo, "episodic",
                           replace(base, mu=mu, sigma=sigma), seed, lane)
                      for algo, mu, sigma in markets]

    def run_round(self):
        out = []
        for s in self.specs:
            recs = self.call("mv.replications", mv.run_mv_replications,
                             s.cfg, s.algo, s.seed, MV_LANES)
            solo = self.call("mv.solo", mv.run_mv, s.cfg, s.algo,
                             mv.RngStream(s.seed, (s.lane, 0)))
            out.append((s, recs, solo))
        return out

    def probe(self) -> None:
        """The same lane-batched calls with zero updates: evaluation only."""
        for s in self.specs:
            with self.tracer.span("mv.eval_probe"):
                mv.run_mv_replications(replace(s.cfg, updates=0), s.algo,
                                       s.seed, MV_LANES)

    def measure(self, out) -> RoundStats:
        stats = RoundStats()
        for s, recs, solo in out:
            if recs is not None:
                stats.lane_steps += mv_lane_steps(s.cfg, MV_LANES)
                stats.mv_updates += s.cfg.updates
                stats.mv_eval_episodes += s.cfg.eval_runs
            if solo is not None:
                stats.lane_steps += mv_lane_steps(s.cfg, 1)
        return stats

    def check(self, out):
        problems = []
        for s, recs, solo in out:
            self.check_replay(s, recs, solo)
            if recs is None:
                continue
            cfg = s.cfg
            excess = cfg.mu - cfg.rfree
            for r in recs:
                if r.status != "ok":
                    problems.append(f"{s.key} lane {r.replication}: NA")
                    continue
                phi = exact.mv_gain(s.algo, r.final_params)
                if not (phi * excess > 0 and r.metrics["sharpe"] > 0):
                    problems.append(f"{s.key} lane {r.replication}: gain {phi:.4g} "
                                    f"gives Sharpe {r.metrics['sharpe']:.4g}")
                mean, var = exact.mv_terminal_moments(
                    phi, cfg.x0, r.final_params["w"], excess, cfg.sigma,
                    cfg.dt, cfg.steps)
                se = math.sqrt(var / cfg.eval_runs)
                if not abs(r.metrics["mean"] - mean) <= MEAN_TOL_SE * se:
                    problems.append(f"{s.key} lane {r.replication}: mean terminal "
                                    f"wealth {r.metrics['mean']:.6f} vs exact "
                                    f"{mean:.6f} +- {MEAN_TOL_SE:g} x {se:.3g}")
        return problems


WORKLOADS = {w.name: w for w in (LqGates, LqWide, MvTrain)}
