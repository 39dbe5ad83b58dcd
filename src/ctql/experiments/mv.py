"""Mean-variance portfolio learning on simulated market data.

Training reuses a fixed pool of market increments per replication (the
"historical data"): each update draws a batch of episode-length segments with
uniformly random start offsets, simulates the wealth path under the current
policy on those increments, and applies one parameter update summed over the
batch and over time steps.
The target-wealth multiplier w moves every `multiplier_every` updates toward
matching the expected terminal wealth to the target z.  After training the
learned policy is evaluated out of sample on fresh market noise.

The driver holds every lane's parameters in one (P, lanes) array whose last
row is w (`MV_PARAM_NAMES`).  An update rolls each lane's wealth out as its
distance to the multiplier, y = x - w: the action a = -gain y + noise makes
y' = y m + c with m = 1 - gain rho and c = noise rho, both formed for the
whole (K, lanes, batch) block of market increments rho, so each step is one
multiply and one add; the actions follow from the path in one pass.  Steps
lead every per-update array (paths, actions and residuals are
(K + 1, lanes, batch)), so the rollout, the grid differences and the running
sums step through contiguous blocks.

Each family of `approx` and `baselines` is written once in factored form,
per-(step, lane) factors (e, c, the precision, the log constant, T - t;
the time-only ones formed once per run) times per-sample terms ((x-w)^2,
dev^2, dev (x-w), a^2, a (x-w)), and each algorithm (`_increments`) forms
its residual from the parts and contracts every gradient row p as
sum_k f_p(k) sum_b h(k, b) resid(k, b): one fused product and sum over the
contiguous batch axis per distinct term, then the factors, then one sum
over the steps of a lanes-leading block, so a lane's numbers do not depend
on the other lanes and the time-only rows need no full-shape product.
qlearn-ml meets its q rows' tail sums with the running sums of its residual
instead.  Every full-shape array lives in buffers allocated once per call,
and one block guards, freezes, updates and traces the parameters for all
four algorithms.  Policy gradient is qlearn-td's update with the actor
rate alpha_phi / gamma: its sampled bonus -gamma log pi is -q, and its
score rows are the q rows over gamma.

Noise consumption per replication stream, in order: pool draws
(standard_normal(pool_size)), then per update the segment starts
(integers(0, pool_size - K + 1, size=batch)) followed by action normals of
shape (K, batch) ((K + 1, batch) for sarsa, which also draws an action at the
terminal state), then one standard_normal((eval_runs, K, 2)) block for the
evaluation episodes, which is the same stream as one (K, 2) draw per episode:
column 0 the action draw and column 1 the Brownian increment.  The same
numbers are consumed whether replications run alone or in lockstep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from ..approx import (mv_q_factors, mv_q_terms, mv_value_factors, mv_value_terms,
                      time_factors)
from ..baselines import qdt_mv_factors, qdt_mv_terms
# perfbench's traced pass wraps these thin names on this module
from ..approx import (mv_q_eval, mv_q_grad, mv_value_eval, mv_value_grad,  # noqa: F401
                      pg_mv_logp, pg_mv_score)
from ..baselines import qdt_mv_eval, qdt_mv_grad  # noqa: F401
from ..envsim import RngStream, STATE_GUARD
from .records import RunRecord, packed

MV_ALGOS = ("qlearn-td", "qlearn-ml", "sarsa", "pg")

# Rows of the (P, lanes) parameter array; the last row is always the
# multiplier w.
MV_PARAM_NAMES = {
    "qlearn-td": ("th1", "th2", "th3", "p1", "p2", "p3", "w"),
    "qlearn-ml": ("th1", "th2", "th3", "p1", "p2", "p3", "w"),
    "sarsa": ("s1", "s2", "s3", "s4", "s5", "w"),
    "pg": ("th1", "th2", "th3", "f1", "f2", "f3", "w"),
}


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
    # Out-of-sample episodes play the Gaussian policy's mean by default, the
    # exploitative readout; set True to sample exploratory actions instead.
    eval_exploratory: bool = False
    trace_points: int = 200

    def __post_init__(self):
        # the comparisons are written so that NaN fails them
        if not (0 < self.sigma < math.inf and 0 < self.gamma < math.inf):
            raise ValueError("sigma and gamma must be positive")
        if not (0 < self.T < math.inf and 0 < self.dt < math.inf):
            raise ValueError("T and dt must be positive")
        if not all(map(math.isfinite, (self.mu, self.rfree, self.x0, self.z))):
            raise ValueError("mu, rfree, x0 and z must be finite")
        if self.updates < 0 or self.batch < 1 or self.multiplier_every < 1:
            raise ValueError("bad updates/batch/multiplier_every")
        if self.eval_runs < 2:
            raise ValueError("need at least two evaluation episodes")
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
    """w' = w - alpha_w (mean terminal wealth - z); drives the mean to z.

    A 2-D argument holds one lane per row; each lane averages its own
    contiguous row, so the result does not depend on how many lanes run
    together.
    """
    tw = np.asarray(terminal_wealths, float)
    if tw.size < 1:
        raise ValueError("no terminal wealths to average")
    return w - alpha_w * (tw.mean(axis=-1) - z)


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
    names = MV_PARAM_NAMES[algo]
    div = int(out["div_step"][lane])
    metrics = {} if div >= 0 else dict(zip(("mean", "variance", "sharpe"),
                                           metrics_terminal(out["terminal"][lane], cfg.x0)))
    trace = {"j": packed(out["j"])}
    trace.update((k, packed(out["trace"][:, i, lane])) for i, k in enumerate(names))
    return RunRecord(
        algo=algo, mode="episodic", replication=rep_id, master_seed=master_seed,
        status="ok" if div < 0 else "NA",
        divergence_step=None if div < 0 else div,
        final_params=dict(zip(names, out["params"][:, lane].tolist())),
        metrics=metrics, trace=trace,
    )


def _init_mv_params(cfg: MvExperimentConfig, algo: str, lanes: int):
    """(P, lanes) start parameters, all zero but the multiplier w = z, and
    the (P - 1, 1) signed learning rate of each row but w.

    The value family tracks the cost-to-go (convex in x) while the q family
    is reward-oriented, so the running term enters the residual with a plus
    sign and the q rows descend (negative rates).  Policy gradient moves its
    rows f along the score, the q rows over gamma, at alpha_phi.
    """
    if algo in ("qlearn-td", "qlearn-ml"):
        rates = (cfg.alpha_theta,) * 3 + (-cfg.alpha_psi,) * 3
    elif algo == "sarsa":
        rates = (cfg.alpha_psi,) * 5
    elif algo == "pg":
        rates = (cfg.alpha_theta,) * 3 + (-cfg.alpha_phi / cfg.gamma,) * 3
    else:
        raise ValueError(f"algo must be one of {MV_ALGOS}")
    P = np.zeros((len(rates) + 1, lanes))
    P[-1] = cfg.z
    return P, np.array(rates).reshape(-1, 1)


def martingale_residuals(terminal, js, running, dt: float, axis: int = 0, out=None):
    """G_k = h(x_K) - J(t_k, x_k) + sum_{i>=k} running_i dt along `axis`.

    The deviation between the realized payoff and the value at every grid
    point, from one reversed cumulative sum; js holds J at the K left grid
    points, running the K running terms, and terminal broadcasts against
    them (the driver's (K, lanes, batch) arrays step along axis 0).  G is
    written to `out` and the tail sums overwrite `running`; without `out`
    both are fresh arrays and the caller's `running` is left as it was.
    """
    if out is None:
        running = np.array(running, float)
        out = np.empty(np.broadcast_shapes(np.shape(terminal), np.shape(js), running.shape))
    _cumulate(np.moveaxis(running, axis, 0), reverse=True)
    running *= dt
    np.subtract(terminal, js, out=out)
    out += running
    return out


# Slices smaller than this take np.cumsum in `_cumulate`, larger ones the
# loop of slice adds, each the cheaper route there: over 25 steps on a
# 2-core Xeon VM, np.cumsum takes 4.9 us against the loop's 16 at 32
# elements a slice, 15 against 20 at 140, 20 against 17 at 224 and 54
# against 20 at 640 (benchmarks/bench_cumulate.py).
CUMSUM_BELOW = 160


def _cumulate(a, reverse=False):
    """Cumulative sums along the leading axis, in place, from the last entry
    if `reverse`.  np.cumsum runs one inner loop per column, a loop of
    whole-slice adds one op per entry; both add in the same order, so they
    give the same bits, and the cheaper one runs (`CUMSUM_BELOW`)."""
    if a[0].size < CUMSUM_BELOW:
        view = np.flip(a, 0) if reverse else a
        np.cumsum(view, 0, out=view)
        return a
    for k in (range(len(a) - 2, -1, -1) if reverse else range(1, len(a))):
        a[k] += a[k + 1 if reverse else k - 1]
    return a


def _contract(rows, terms, resid):
    """Sum each row times the residual over the steps and the batch.

    A row is a {term: per-(step, lane) factor} dict over `terms`, "1" the
    residual alone; the terms and the residual are (K, lanes, batch).  For
    each distinct term one fused product and sum over the contiguous batch
    axis gives its (step, lane) sums, the rows' factors meet those sums in
    a lanes-leading block, and one sum over its step axis ends each row.
    Each sum runs along a contiguous axis, so lane r gets bit-identical
    sums no matter how many other lanes run with it.
    """
    sums = {h: np.einsum("klb,klb->kl", terms[h], resid)[..., None]
            for h in {h for r in rows for h in r} - {"1"}}
    sums["1"] = resid.sum(axis=-1, keepdims=True)
    K, lanes = resid.shape[:2]
    per_step = np.empty((len(rows), lanes, K))
    # each row's (step, lane) sums go to a lanes-leading block
    for r, out in zip(rows, per_step.transpose(0, 2, 1)[..., None]):
        (h, f), *rest = r.items()
        np.multiply(f, sums[h], out=out)
        for h, f in rest:
            out += f * sums[h]
    return per_step.sum(axis=-1)


def _left(rows):
    """A family's rows on the K + 1 grid points at the K left ones."""
    return [{h: f[:-1] for h, f in r.items()} for r in rows]


def _policy(algo: str, P, cfg: MvExperimentConfig, tau):
    """Gain g and variance of the lanes' Gaussian policy N(-g (x - w), var)
    at the times to go tau = T - t; the rows of P broadcast against tau."""
    if algo == "sarsa":
        s1, s2, s3 = P[:3]
        return s2 * np.exp(s1), cfg.gamma * cfg.dt * np.exp(s3 * tau + s1)
    c1, gain, c3 = P[3:6]
    return gain, cfg.gamma * np.exp(c1 + c3 * tau)


def _increments(algo: str, cfg: MvExperimentConfig, P, times, ys, acts,
                gain, var, work):
    """One update's (P - 1, lanes) parameter increments before the rates:
    the algorithm's residual contracted with its test vectors.

    P holds the rows as (1, lanes, 1) columns, times the time factors
    (`time_factors`) of the K + 1 grid times as (K + 1, 1, 1) columns, ys
    the wealth paths' distances y = x - w to the multiplier and acts their
    actions, both (K + 1, lanes, batch) (the last action is padding except
    for sarsa); gain and var are the policy's, from `_policy`.  Each family
    comes as per-(step, lane) factors and per-sample terms: the terms go to
    the first slots of the workspace `work` (slots, K + 1, lanes, batch),
    the residual, formed from the parts, to the last, and `_contract` meets
    the two.
    """
    K, dt, gamma, z = cfg.steps, cfg.dt, cfg.gamma, cfg.z
    w = P[-1]
    resid, tmp = work[-1, :K], work[-2]
    if algo == "sarsa":
        value, rows = qdt_mv_factors(P[0], *P[2:5], w, z, times)
        terms = qdt_mv_terms(P[0], P[1], ys, acts, out=work[:3])
        # Q(k + 1) - Q(k): -e quad on the grid, then the constant
        vq = np.multiply(value["quad"], terms["quad"], out=tmp)
        np.subtract(vq[1:], vq[:-1], out=resid)
        c = value["1"]
        # minus gamma dt log pi of the next action, pi = N(-gain (x - w), var)
        dev = np.add(acts[1:], np.multiply(gain, ys[1:], out=tmp[:K]), out=tmp[:K])
        dev *= dev
        dev *= (0.5 * gamma * dt) / var[1:]
        resid += dev
        resid += (c[1:] - c[:-1]) + 0.5 * gamma * dt * np.log(2.0 * np.pi * var[1:])
        return _contract(_left(rows), {h: v[:K] for h, v in terms.items()}, resid)
    th, pol = P[:3], P[3:6]
    value, v_rows = mv_value_factors(*th, w, z, times)
    q, q_rows = mv_q_factors(pol[0], pol[2], gamma, times[0][:K])
    sq = mv_value_terms(ys, out=work[0])["sq"]
    terms = mv_q_terms(pol[1], ys[:K], acts[:K], out=work[1:3, :K])
    terms["sq"] = sq[:K]
    c = value["1"]
    if algo == "qlearn-ml":
        # G: terminal payoff minus J plus the running q's tail sums, the
        # sample terms' and the constants' martingale residuals apart
        js = np.multiply(value["sq"][:K], terms["sq"], out=work[3, :K])
        running = np.multiply(q["dev2"], terms["dev2"], out=tmp[:K])
        martingale_residuals(value["sq"][K] * sq[K], js, running, dt, out=resid)
        resid += martingale_residuals(c[K], c[:K], q["1"], dt)
        # the q rows' tail sums meet the residual as its running sums
        cum = work[3, :K]
        np.copyto(cum, resid)
        _cumulate(cum)
        d = _contract(_left(v_rows), terms, resid)
        return np.concatenate([d, dt * _contract(q_rows, terms, cum)]) * dt
    # J(k + 1) - J(k) + q(k) dt: e (x - w)^2 on the grid, then the rest
    vq = np.multiply(value["sq"], sq, out=tmp)
    np.subtract(vq[1:], vq[:-1], out=resid)
    resid += np.multiply(dt * q["dev2"], terms["dev2"], out=tmp[:K])
    resid += (c[1:] - c[:-1]) + dt * q["1"]
    return _contract(_left(v_rows) + list(q_rows), terms, resid)


def _drive_mv(cfg: MvExperimentConfig, algo: str,
              streams: Sequence[RngStream]) -> dict:
    P, rates = _init_mv_params(cfg, algo, len(streams))  # checks algo
    gens = [s.generator() for s in streams]
    active = np.ones(len(gens), bool)
    div_step = np.full(len(gens), -1, dtype=np.int64)
    # the training's buffers are freed on return, for the evaluation to reuse
    j, p_trace = _train(cfg, algo, gens, P, rates, active, div_step)
    terminal = _evaluate(cfg, algo, P, gens, active)
    eval_bad = ~np.isfinite(terminal).all(axis=1) & (div_step < 0)
    div_step[eval_bad] = cfg.updates + 1
    return {"params": P, "div_step": div_step, "terminal": terminal,
            "j": j, "trace": p_trace}


def _train(cfg: MvExperimentConfig, algo: str, gens, P, rates, active, div_step):
    """The updates, in place on P, active and div_step; returns the trace."""
    lanes = len(gens)
    K, B = cfg.steps, cfg.batch
    n_act = K + 1 if algo == "sarsa" else K

    # per-unit-action wealth increments; one fixed pool per replication
    pool = np.empty((lanes, cfg.pool_size))
    for g, row in zip(gens, pool):
        g.standard_normal(out=row)
    pool *= cfg.sigma * math.sqrt(cfg.dt)
    pool += (cfg.mu - cfg.rfree) * cfg.dt
    # flat offsets of each lane's pool row and of a segment's K steps
    base = (np.arange(lanes) * cfg.pool_size)[:, None]
    seg = np.arange(K)[:, None, None]

    cols = P[:, None, :, None]  # the rows as (1, lanes, 1) columns
    w = P[-1, :, None]
    tw = np.empty((lanes, cfg.multiplier_every, B))

    record_every = max(1, cfg.updates // max(1, cfg.trace_points))
    n_rec = cfg.updates // record_every
    p_trace = np.empty((n_rec, len(P), lanes))

    # the grid's last time is T itself, where the value is the payoff; the
    # families' time-only factors are formed once
    tcol = (np.arange(K + 1) * cfg.dt).reshape(K + 1, 1, 1)
    tcol[K] = cfg.T
    times = time_factors(cfg.T, tcol)
    starts = np.empty((lanes, B), np.int64)
    n_starts = cfg.pool_size - K + 1  # segments of K steps that fit the pool
    # Every full-shape array of an update is allocated once per call: an
    # array allocated per update can land in mmap and fault its pages in
    # again every time.  Steps lead, so that the rollout, the grid
    # differences and the running sums step through one contiguous
    # (lanes, batch) block per grid point; `_increments` writes its terms
    # and residual to the workspace `work`.
    work = np.empty((6 if algo == "qlearn-ml" else 5, K + 1, lanes, B))
    idx = np.empty((K, lanes, B), np.int64)
    rho = np.empty((K, lanes, B))
    znoise = np.empty((lanes, n_act, B))
    ys = np.empty((K + 1, lanes, B))
    shift = np.empty((K, lanes, B))
    # the action at the last grid point is padding except for sarsa, and
    # its noise stays 0
    noise = np.zeros((K + 1, lanes, B))
    neg = np.empty((lanes, B))
    acts = np.empty((K + 1, lanes, B))

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j in range(1, cfg.updates + 1):
            for g, s, zn in zip(gens, starts, znoise):
                s[:] = g.integers(0, n_starts, size=B)
                g.standard_normal(out=zn)
            # rho[k, r, b]: increment k of lane r's segment b; every offset
            # is in range, and "clip" takes without an intermediate copy
            pool.take(np.add(starts + base, seg, out=idx), out=rho, mode="clip")

            # a = -gain y + noise steps y = x - w as y' = y m + c, with
            # m = 1 - gain rho and c = noise rho formed for the whole block
            gain, var = _policy(algo, cols, cfg, times[0][:n_act])
            np.multiply(np.sqrt(var), znoise.transpose(1, 0, 2), out=noise[:n_act])
            np.multiply(noise[:K], rho, out=shift)
            np.negative(gain[0], out=neg)  # one (lanes, batch) block
            rho *= neg
            rho += 1.0
            np.subtract(cfg.x0, w, out=ys[0])
            for k in range(K):
                np.multiply(ys[k], rho[k], out=ys[k + 1])
                ys[k + 1] += shift[k]
            np.multiply(ys, neg, out=acts)
            acts += noise

            # every wealth x = y + w within STATE_GUARD, NaN failing the
            # comparisons; x rounds monotonically in y, so y's extremes decide
            hi = ys.max(axis=0).max(axis=1) + P[-1]
            lo = ys.min(axis=0).min(axis=1) + P[-1]
            bad = ~((hi <= STATE_GUARD) & (lo >= -STATE_GUARD))
            if algo == "sarsa":
                bad |= ~np.isfinite(acts).all(axis=(0, 2))
            if bad.any():
                ys[:, bad] = 0.0
                acts[:, bad] = 0.0
            d = _increments(algo, cfg, cols, times, ys, acts, gain, var, work)

            # one guard, freeze, update and trace block for every algorithm
            bad |= ~np.isfinite(d).all(axis=0)
            prev = P.copy()
            P[:-1] += cfg.schedule(j) * rates * d * (~bad & active)
            blown = ~np.isfinite(P).all(axis=0)
            if blown.any():
                P[:, blown] = prev[:, blown]
                bad |= blown
            div_step[bad & active] = j
            active &= ~bad

            tw[:, (j - 1) % cfg.multiplier_every] = np.where(active[:, None], ys[K] + w, np.nan)
            if j % cfg.multiplier_every == 0:
                w_new = lagrange_update(P[-1], tw.reshape(lanes, -1), cfg.alpha_w, cfg.z)
                P[-1] = np.where(active & np.isfinite(w_new), w_new, P[-1])
            if j % record_every == 0:
                p_trace[j // record_every - 1] = P
    return record_every * np.arange(1.0, n_rec + 1), p_trace


def _evaluate(cfg: MvExperimentConfig, algo: str, P: np.ndarray, gens,
              active: np.ndarray) -> np.ndarray:
    """Out-of-sample terminal wealths, shape (lanes, eval_runs).

    Each lane draws its (eval_runs, K, 2) normals in one call, the same
    numbers as one (K, 2) draw per episode in the order a scalar episode
    simulator would use (action draw, then Brownian increment), and the
    K-step rollout runs once over every lane and episode.
    """
    K, dt = cfg.steps, cfg.dt
    # the action normal is drawn either way so both readouts consume the
    # same stream and stay replayable against each other
    noise = np.empty((len(gens), cfg.eval_runs, K, 2))
    for g, buf in zip(gens, noise):
        g.standard_normal(out=buf)
    w = P[-1, :, None]
    with np.errstate(over="ignore", invalid="ignore"):
        gain, var = _policy(algo, P[:, :, None, None], cfg, cfg.T - np.arange(K) * dt)
        neg = -gain[:, 0]
        # the mean readout leaves the exploration term out, so a lane
        # whose policy variance overflows is still read at its mean
        eps = np.sqrt(var) * noise[..., 0] if cfg.eval_exploratory else None
        dw = (cfg.mu - cfg.rfree) * dt + cfg.sigma * math.sqrt(dt) * noise[..., 1]
        x = np.full(dw.shape[:2], float(cfg.x0))
        for k in range(K):
            a = x - w
            a *= neg
            if eps is not None:
                a += eps[..., k]
            a *= dw[..., k]
            x += a
        terminal = np.where(np.abs(x) <= STATE_GUARD, x, np.nan)
    # a lane whose evaluation blew up is reported as diverged by the caller
    return np.where(active[:, None], terminal, np.nan)
