"""Mean-variance portfolio learning on simulated market data.

Training reuses a fixed pool of market increments per replication (the
"historical data"): each update draws a batch of episode-length segments with
uniformly random start offsets, simulates the wealth path under the current
policy on those increments, and applies one parameter update summed over the
batch and over time steps.
The target-wealth multiplier w moves every `multiplier_every` updates toward
matching the expected terminal wealth to the target z.  After training the
learned policy is evaluated out of sample on fresh market noise.

Noise consumption per replication stream, in order: pool draws
(standard_normal(pool_size)), then per update the segment starts
(integers(0, pool_size - K + 1, size=batch)) followed by action normals of
shape (K, batch) ((K + 1, batch) for sarsa, which also draws an action at the
terminal state), then per evaluation episode standard_normal((K, 2)) with
column 0 the action draw and column 1 the Brownian increment.  The same
numbers are consumed whether replications run alone or in lockstep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from ..approx import (mv_q_eval, mv_q_grad, mv_value_eval, mv_value_grad)
from ..baselines import (pg_mv_logp, pg_mv_score, qdt_mv_eval, qdt_mv_grad)
from ..envsim import RngStream, STATE_GUARD
from .records import RunRecord

LOG_2PI = math.log(2.0 * math.pi)

MV_ALGOS = ("qlearn-td", "qlearn-ml", "sarsa", "pg")


def power_schedule(exponent: float = 0.51) -> Callable[[float], float]:
    """l(j) = j^-exponent for episode counters j >= 1."""
    def sched(j: float) -> float:
        return float(max(j, 1.0)) ** (-exponent)
    sched.__name__ = f"power_schedule_{exponent:g}"
    return sched


@dataclass(frozen=True)
class MvExperimentConfig:
    mu: float = -0.5
    sigma: float = 0.1
    rfree: float = 0.0
    T: float = 1.0
    dt: float = 1.0 / 25.0
    x0: float = 1.0
    z: float = 1.4
    gamma: float = 0.1
    updates: int = 20000
    batch: int = 32
    multiplier_every: int = 10
    alpha_theta: float = 0.001
    alpha_psi: float = 0.001
    alpha_phi: float = 0.001
    alpha_w: float = 0.005
    schedule: Callable[[float], float] = power_schedule(0.51)
    train_years: float = 20.0
    eval_runs: int = 100
    ml_inner_sum: str = "discounted"
    # Out-of-sample episodes play the Gaussian policy's mean by default, the
    # exploitative readout; set True to sample exploratory actions instead.
    eval_exploratory: bool = False
    strict_multiplier_box: bool = False
    trace_points: int = 200

    def __post_init__(self):
        if self.sigma <= 0 or self.gamma <= 0:
            raise ValueError("sigma and gamma must be positive")
        if self.T <= 0 or self.dt <= 0:
            raise ValueError("T and dt must be positive")
        if self.updates < 0 or self.batch < 1 or self.multiplier_every < 1:
            raise ValueError("bad updates/batch/multiplier_every")
        if self.eval_runs < 2:
            raise ValueError("need at least two evaluation episodes")
        if self.ml_inner_sum not in ("discounted", "frozen-at-k"):
            raise ValueError("ml_inner_sum must be 'discounted' or 'frozen-at-k'")
        k = int(round(self.T / self.dt))
        if abs(k * self.dt - self.T) > 1e-9:
            raise ValueError("T must be a whole number of steps")
        if self.pool_size < k:
            raise ValueError("training pool shorter than one episode")

    @property
    def steps(self) -> int:
        return int(round(self.T / self.dt))

    @property
    def pool_size(self) -> int:
        return int(round(self.train_years / self.dt))


def lagrange_update(w, terminal_wealths, alpha_w: float, z: float):
    """w' = w - alpha_w (mean terminal wealth - z); drives the mean to z."""
    tw = np.asarray(terminal_wealths, float)
    if tw.size < 1:
        raise ValueError("no terminal wealths to average")
    if tw.ndim == 1:
        return w - alpha_w * (tw.mean() - z)
    # average each lane over its own contiguous block so the result does not
    # depend on how many lanes run together
    mean = np.ascontiguousarray(tw.T).mean(axis=1)
    return w - alpha_w * (mean - z)


def metrics_terminal(wealths, x0: float):
    """(mean, variance, sharpe) of terminal wealth; variance uses ddof=1.

    sharpe = (mean - x0) / std.  A degenerate zero-variance sample gets a
    signed infinity (0 on an exact tie) so the ratio stays reportable.
    """
    tw = np.asarray(wealths, float)
    if tw.size < 2:
        raise ValueError("need at least two terminal wealths")
    mean = float(tw.mean())
    var = float(tw.var(ddof=1))
    if var == 0.0:
        if mean == x0:
            return mean, 0.0, 0.0
        return mean, 0.0, math.inf if mean > x0 else -math.inf
    return mean, var, (mean - x0) / math.sqrt(var)


def run_mv_replications(cfg: MvExperimentConfig, algo: str, master_seed: int,
                        reps: int) -> List[RunRecord]:
    streams = [RngStream(master_seed, (r, 0)) for r in range(reps)]
    out = _drive_mv(cfg, algo, streams)
    return [_record(cfg, algo, out, r, r, master_seed) for r in range(reps)]


def run_mv(cfg: MvExperimentConfig, algo: str, rng: RngStream) -> RunRecord:
    out = _drive_mv(cfg, algo, [rng])
    rep_id = int(rng.stream_id[0]) if rng.stream_id else 0
    return _record(cfg, algo, out, 0, rep_id, rng.master_seed)


def _record(cfg, algo, out, lane, rep_id, master_seed) -> RunRecord:
    status = "ok" if out["div_step"][lane] < 0 else "NA"
    final = {k: float(v[lane]) for k, v in out["params"].items()}
    metrics = {}
    if status == "ok":
        mean, var, sharpe = metrics_terminal(out["terminal"][:, lane], cfg.x0)
        metrics = {"mean": mean, "variance": var, "sharpe": sharpe}
    return RunRecord(
        algo=algo, mode="episodic", replication=rep_id, master_seed=master_seed,
        status=status,
        divergence_step=None if out["div_step"][lane] < 0 else int(out["div_step"][lane]),
        final_params=final, metrics=metrics,
        trace={k: v[:, lane].tolist() for k, v in out["trace"].items()},
    )


def _init_mv_params(cfg: MvExperimentConfig, algo: str, reps: int) -> dict:
    """Zero-initialized parameters; the multiplier starts at the target z."""
    z = lambda: np.zeros(reps)
    w = np.full(reps, float(cfg.z))
    if algo in ("qlearn-td", "qlearn-ml"):
        return {"th1": z(), "th2": z(), "th3": z(),
                "p1": z(), "p2": z(), "p3": z(), "w": w}
    if algo == "sarsa":
        return {"s1": z(), "s2": z(), "s3": z(), "s4": z(), "s5": z(), "w": w}
    if algo == "pg":
        return {"th1": z(), "th2": z(), "th3": z(),
                "f1": z(), "f2": z(), "f3": z(), "w": w}
    raise ValueError(f"algo must be one of {MV_ALGOS}")


def martingale_residuals(terminal, js, running, dt: float):
    """G_k = h(x_K) - J(t_k, x_k) + sum_{i>=k} running_i dt along axis 0.

    The deviation between the realized payoff and the value at every grid
    point, from one reversed cumulative sum; js holds J at the K left grid
    points and running the K running terms.
    """
    return terminal[None] - js + np.flip(np.cumsum(np.flip(running, 0), 0), 0) * dt


def _contract(tests, resid):
    """Sum tests[p, k, b, r] * resid[k, b, r] over the step and batch axes.

    Each lane reduces its own contiguous block, so lane r gets bit-identical
    sums no matter how many other lanes run in the same call.
    """
    prod = tests * resid[None]
    flat = prod.reshape(tests.shape[0], -1, tests.shape[-1])
    return np.ascontiguousarray(np.moveaxis(flat, -1, 0)).sum(axis=-1).T


def _drive_mv(cfg: MvExperimentConfig, algo: str,
              streams: Sequence[RngStream]) -> dict:
    if algo not in MV_ALGOS:
        raise ValueError(f"algo must be one of {MV_ALGOS}")
    reps = len(streams)
    gens = [s.generator() for s in streams]
    K = cfg.steps
    B = cfg.batch
    dt = cfg.dt
    sqdt = math.sqrt(dt)
    gamma = cfg.gamma
    T = cfg.T
    excess = cfg.mu - cfg.rfree

    # per-unit-action wealth increments; one fixed pool per replication
    pool = np.stack([g.standard_normal(cfg.pool_size) for g in gens], axis=-1)
    pool = excess * dt + cfg.sigma * sqdt * pool

    params = _init_mv_params(cfg, algo, reps)
    active = np.ones(reps, bool)
    div_step = np.full(reps, -1, dtype=np.int64)
    tw_buffer: List[np.ndarray] = []

    record_every = max(1, cfg.updates // max(1, cfg.trace_points))
    n_rec = cfg.updates // record_every if cfg.updates else 0
    trace = {k: np.empty((n_rec, reps)) for k in ["j"] + list(params.keys())}
    rec_i = 0

    tgrid = np.arange(K + 1) * dt
    tcol = tgrid.reshape(K + 1, 1, 1)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j in range(1, cfg.updates + 1):
            starts = np.stack(
                [g.integers(0, cfg.pool_size - K + 1, size=B) for g in gens], axis=-1)
            n_act = K + 1 if algo == "sarsa" else K
            znoise = np.stack([g.standard_normal((n_act, B)) for g in gens], axis=-1)
            # segment of increments per lane: rho[k, b, r]
            idx = starts[None, :, :] + np.arange(K)[:, None, None]
            rho = np.take_along_axis(
                np.broadcast_to(pool[:, None, :], (cfg.pool_size, B, reps)), idx, axis=0)

            w = params["w"]
            prev = {k: v.copy() for k, v in params.items()}
            xs = np.empty((K + 1, B, reps))
            xs[0] = cfg.x0
            acts = np.empty((n_act, B, reps))
            if algo in ("qlearn-td", "qlearn-ml"):
                p1, p2, p3 = params["p1"], params["p2"], params["p3"]
                std = np.sqrt(gamma * np.exp(p1 + p3 * (T - tgrid[:, None, None])))
                for k in range(K):
                    a = -p2 * (xs[k] - w) + std[k] * znoise[k]
                    xs[k + 1] = xs[k] + a * rho[k]
                    acts[k] = a
            elif algo == "sarsa":
                s1, s2, s3 = params["s1"], params["s2"], params["s3"]
                std = np.sqrt(gamma * dt * np.exp(s3 * (T - tgrid[:, None, None]) + s1))
                for k in range(K):
                    a = -s2 * np.exp(s1) * (xs[k] - w) + std[k] * znoise[k]
                    xs[k + 1] = xs[k] + a * rho[k]
                    acts[k] = a
                acts[K] = -s2 * np.exp(s1) * (xs[K] - w) + std[K] * znoise[K]
            else:  # pg
                f1, f2, f3 = params["f1"], params["f2"], params["f3"]
                std = np.sqrt(gamma * np.exp(f1 + f3 * (T - tgrid[:, None, None])))
                for k in range(K):
                    a = -f2 * (xs[k] - w) + std[k] * znoise[k]
                    xs[k + 1] = xs[k] + a * rho[k]
                    acts[k] = a

            bad = ~np.isfinite(xs).all(axis=(0, 1)) | (np.abs(xs).max(axis=(0, 1)) > STATE_GUARD)
            if algo == "sarsa":
                bad |= ~np.isfinite(acts).all(axis=(0, 1))
            xs = np.where(bad, 0.0, xs)
            acts = np.where(bad, 0.0, acts)
            lr = cfg.schedule(j)

            if algo in ("qlearn-td", "qlearn-ml"):
                th1, th2, th3 = params["th1"], params["th2"], params["th3"]
                p1, p2, p3 = params["p1"], params["p2"], params["p3"]
                js = mv_value_eval(th1, th2, th3, w, cfg.z, T, tcol, xs)
                qs = mv_q_eval(p1, p2, p3, w, gamma, T, tcol[:-1], xs[:-1], acts)
                xi = mv_value_grad(th1, th2, th3, w, cfg.z, T, tcol[:-1], xs[:-1])
                zeta = mv_q_grad(p1, p2, p3, w, gamma, T, tcol[:-1], xs[:-1], acts)
                # The value family tracks the cost-to-go (convex in x), while
                # the q family is reward-oriented, so the running term enters
                # the residual with a plus sign and the q-parameter step
                # descends rather than ascends.
                if algo == "qlearn-td":
                    delta = js[1:] - js[:-1] + qs * dt
                    d_th = _contract(xi, delta)
                    d_p = -_contract(zeta, delta)
                else:
                    term = mv_value_eval(th1, th2, th3, w, cfg.z, T, T, xs[K])
                    g = martingale_residuals(term, js[:-1], qs, dt)
                    if cfg.ml_inner_sum == "discounted":
                        zacc = np.flip(np.cumsum(np.flip(zeta, 1), 1), 1) * dt
                    else:
                        zacc = zeta * ((K - np.arange(K)) * dt)[:, None, None]
                    d_th = _contract(xi, g) * dt
                    d_p = -_contract(zacc, g) * dt
                bad |= ~np.isfinite(d_th).all(axis=0) | ~np.isfinite(d_p).all(axis=0)
                ok = (~bad & active).astype(float)
                params["th1"] = th1 + lr * cfg.alpha_theta * d_th[0] * ok
                params["th2"] = th2 + lr * cfg.alpha_theta * d_th[1] * ok
                params["th3"] = th3 + lr * cfg.alpha_theta * d_th[2] * ok
                params["p1"] = p1 + lr * cfg.alpha_psi * d_p[0] * ok
                params["p2"] = p2 + lr * cfg.alpha_psi * d_p[1] * ok
                params["p3"] = p3 + lr * cfg.alpha_psi * d_p[2] * ok
            elif algo == "sarsa":
                s1, s2, s3 = params["s1"], params["s2"], params["s3"]
                s4, s5 = params["s4"], params["s5"]
                qv = qdt_mv_eval(s1, s2, s3, s4, s5, w, cfg.z, T, tcol, xs, acts)
                var = gamma * dt * np.exp(s3 * (T - tcol) + s1)
                dev = acts + s2 * np.exp(s1) * (xs - w)
                logp = -0.5 * dev ** 2 / var - 0.5 * np.log(2.0 * np.pi * var)
                bracket = qv[1:] - gamma * logp[1:] * dt - qv[:-1]
                grad = qdt_mv_grad(s1, s2, s3, s4, s5, w, cfg.z, T,
                                   tcol[:-1], xs[:-1], acts[:-1])
                d_s = _contract(grad, bracket)
                bad |= ~np.isfinite(d_s).all(axis=0)
                ok = (~bad & active).astype(float)
                for i, key in enumerate(("s1", "s2", "s3", "s4", "s5")):
                    params[key] = params[key] + lr * cfg.alpha_psi * d_s[i] * ok
            else:  # pg
                th1, th2, th3 = params["th1"], params["th2"], params["th3"]
                f1, f2, f3 = params["f1"], params["f2"], params["f3"]
                js = mv_value_eval(th1, th2, th3, w, cfg.z, T, tcol, xs)
                logp = pg_mv_logp(f1, f2, f3, w, gamma, T, tcol[:-1], xs[:-1], acts)
                # cost orientation again: the log-density cost accrues with a
                # plus sign and the actor descends the scored residual
                delta = js[1:] - js[:-1] + gamma * logp * dt
                xi = mv_value_grad(th1, th2, th3, w, cfg.z, T, tcol[:-1], xs[:-1])
                score = pg_mv_score(f1, f2, f3, w, gamma, T, tcol[:-1], xs[:-1], acts)
                d_th = _contract(xi, delta)
                d_f = -_contract(score, delta)
                bad |= ~np.isfinite(d_th).all(axis=0) | ~np.isfinite(d_f).all(axis=0)
                ok = (~bad & active).astype(float)
                params["th1"] = th1 + lr * cfg.alpha_theta * d_th[0] * ok
                params["th2"] = th2 + lr * cfg.alpha_theta * d_th[1] * ok
                params["th3"] = th3 + lr * cfg.alpha_theta * d_th[2] * ok
                params["f1"] = f1 + lr * cfg.alpha_phi * d_f[0] * ok
                params["f2"] = f2 + lr * cfg.alpha_phi * d_f[1] * ok
                params["f3"] = f3 + lr * cfg.alpha_phi * d_f[2] * ok

            blown = np.zeros(reps, bool)
            for key, val in params.items():
                blown |= ~np.isfinite(val)
            for key in params:
                params[key] = np.where(blown, prev[key], params[key])
            bad |= blown
            newly = bad & active
            div_step[newly] = j
            active &= ~bad

            tw_buffer.append(np.where(active, xs[K], np.nan))
            if j % cfg.multiplier_every == 0:
                tw = np.concatenate(tw_buffer, axis=0)
                tw_buffer = []
                z_eff = 0.0 if cfg.strict_multiplier_box else cfg.z
                with np.errstate(invalid="ignore"):
                    w_new = lagrange_update(w, tw, cfg.alpha_w, z_eff)
                params["w"] = np.where(active & np.isfinite(w_new), w_new, w)

            if j % record_every == 0 and rec_i < n_rec:
                trace["j"][rec_i] = j
                for key in params:
                    trace[key][rec_i] = params[key]
                rec_i += 1

    terminal = _evaluate(cfg, algo, params, gens, active)
    eval_bad = ~np.isfinite(terminal).all(axis=0) & (div_step < 0)
    div_step[eval_bad] = cfg.updates + 1
    return {"params": params, "div_step": div_step, "terminal": terminal,
            "trace": {k: v[:rec_i] for k, v in trace.items()}}


def _evaluate(cfg: MvExperimentConfig, algo: str, params: dict, gens,
              active: np.ndarray) -> np.ndarray:
    """Out-of-sample terminal wealths, shape (eval_runs, reps).

    Evaluation episodes consume (K, 2) normals each, the same order a scalar
    episode simulator would use (action draw, then Brownian increment).
    """
    K = cfg.steps
    dt = cfg.dt
    sqdt = math.sqrt(dt)
    T = cfg.T
    gamma = cfg.gamma
    excess = cfg.mu - cfg.rfree
    reps = len(gens)
    w = params["w"]

    if algo in ("qlearn-td", "qlearn-ml"):
        p1, p2, p3 = params["p1"], params["p2"], params["p3"]
        mean = lambda t, x: -p2 * (x - w)
        std = lambda t: np.sqrt(gamma * np.exp(p1 + p3 * (T - t)))
    elif algo == "sarsa":
        s1, s2, s3 = params["s1"], params["s2"], params["s3"]
        mean = lambda t, x: -s2 * np.exp(s1) * (x - w)
        std = lambda t: np.sqrt(gamma * dt * np.exp(s3 * (T - t) + s1))
    else:
        f1, f2, f3 = params["f1"], params["f2"], params["f3"]
        mean = lambda t, x: -f2 * (x - w)
        std = lambda t: np.sqrt(gamma * np.exp(f1 + f3 * (T - t)))

    terminal = np.empty((cfg.eval_runs, reps))
    with np.errstate(over="ignore", invalid="ignore"):
        explore = 1.0 if cfg.eval_exploratory else 0.0
        for e in range(cfg.eval_runs):
            # the action normal is drawn either way so both modes consume the
            # same stream and stay replayable against each other
            noise = np.stack([g.standard_normal((K, 2)) for g in gens], axis=-1)
            x = np.full(reps, float(cfg.x0))
            for k in range(K):
                t = k * dt
                a = mean(t, x) + explore * std(t) * noise[k, 0]
                x = x + a * (excess * dt + cfg.sigma * sqdt * noise[k, 1])
            x = np.where(np.isfinite(x) & (np.abs(x) <= STATE_GUARD), x, np.nan)
            terminal[e] = x
    # a lane whose evaluation blew up is reported as diverged by the caller
    return np.where(active, terminal, np.nan)
