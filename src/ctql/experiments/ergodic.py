"""Long-run average reward experiment on the scalar linear-quadratic model.

Three learners run online on a single long trajectory: the rate-based
q-learner, SARSA on a step-size Q-function, and policy gradient with a
temporal-difference critic.  On-policy runs execute the learner's own policy;
off-policy runs execute a fixed Gaussian behavior policy and feed the learner
the observed transitions.

Every learner is one instance of the ergodic martingale condition: a residual
tested against a vector of test functions.  Each update rule is one lane
kernel that computes its residual and writes its test vectors into a
(6, lanes) buffer (`rate_kernel` for q-learning and policy gradient,
`sarsa_kernel` for SARSA); the driver holds the six parameters of every lane
in one (6, lanes) array and moves them along rate * residual * tests in a
single block shared by all three learners.

The policy-gradient arm realizes the exploration bonus as the policy's
entropy by default (`pg_regularizer="entropy"`), which is the benchmark
convention.  With `"sampled"` the bonus is the negative log-density at the
taken action, which for this normalized Gaussian family makes the update
identical to the q-learner's up to a 1/gamma rescaling of the actor rate.
On-policy the two forms agree in the conditional mean of the residual, but
not of the actor's update residual * score: the entropy is free of the
action, so the entropy route lacks the bonus's own gradient
gamma dH/dpsi3 = gamma/2 per unit time.  Measured at the oracle's parameters
on an on-policy path (dt 0.01, 1e6 steps), the psi3 row's mean of
residual * score reads -10.9 standard errors on the entropy route and 1.1 on
the sampled one.  Adding the term moves every policy-gradient record, so it
is left to a change of its own.

Replications are advanced in lockstep as numpy vectors, one lane per
replication.  Each replication owns a counter-based noise stream; the driver
runs in blocks of `_BLOCK` steps and draws each block's noise as an (n, 2)
array per replication, column 0 for the action draw of the step and column 1
for the Brownian increment.  A stream gives the same numbers however many it
is asked for at a time, so a single replication consumes exactly the same
numbers regardless of the block length or of how many lanes run beside it,
and a run's working memory depends on its lanes, not on its horizon.
SARSA draws its action at the *next* state (column 0 of the step belongs to
that draw, after one extra draw for the initial action); off-policy SARSA
samples the bracket action from its own stream so the observed data stay
shared across algorithms.  A lane's trace ends at the first record after it
diverges.  The driver then drops the lane from its working arrays and
stops drawing its streams; the lane's record keeps its frozen parameters,
and the driver stops once every lane has diverged, so a lane's record does
not depend on the lanes beside it either.

Off-policy, the observed actions, states and rewards do not depend on the
learner, so the driver computes them for the whole block from its noise;
the per-step loop then runs only the kernel, the guard, the update and the
trace.  The block uses the same state and reward expressions as the
on-policy step (`_euler`, `_reward`), so a lane's numbers do not depend on
the block length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Callable, List, Sequence

import numpy as np

from ..approx import LOG_2PI
from ..envsim import LqCoefficients, RngStream, STATE_GUARD
from .records import RunRecord, packed

# Steps whose noise, learning rates and, off-policy, behaviour data are
# computed at once.  A block's arrays hold about a dozen doubles per
# lane-step, so a run's working memory depends on its lanes, not on its
# horizon.
_BLOCK = 512
# A sum of squared states at most this bounds every state by STATE_GUARD.
_STATE_GUARD2 = STATE_GUARD ** 2

# Runaway parameters can freeze at huge finite values once the actor score
# underflows, so divergence cannot be detected from non-finiteness alone.
# Healthy parameter paths for this model stay in single digits (the largest
# legitimate value is the SARSA log-precision log(1/(gamma dt)) ~ 6.9 at
# dt=0.01); observed runaways freeze at 50+.
PARAM_GUARD = 25.0

ALGOS = ("qlearn-online", "sarsa", "pg")
MODES = ("on-policy", "off-policy")

# Rows of the (6, lanes) parameter array; the last row is always the rate V.
PARAM_NAMES = {
    "qlearn-online": ("th1", "th2", "p1", "p2", "p3", "V"),
    "sarsa": ("s1", "s2", "s3", "s4", "s5", "V"),
    "pg": ("th1", "th2", "f1", "f2", "f3", "V"),
}


def sqrt_log_schedule(arg: float) -> float:
    """l(t) = 1 / max(1, sqrt(log t)); equals 1 for t <= e."""
    if arg <= 1.0:
        return 1.0
    return 1.0 / max(1.0, math.sqrt(math.log(arg)))


@dataclass(frozen=True)
class ErgodicExperimentConfig:
    coef: LqCoefficients = LqCoefficients()
    gamma: float = 0.1
    dt: float = 0.1
    horizon: float = 1.0e5
    x0: float = 0.0
    alpha_theta: float = 0.001
    alpha_psi: float = 0.001
    alpha_v: float = 0.001
    alpha_phi: float = 0.001
    schedule: Callable[[float], float] = sqrt_log_schedule
    behavior_mean: float = 0.0
    behavior_var: float = 1.0
    pg_regularizer: str = "entropy"
    trace_points: int = 200

    def __post_init__(self):
        if self.dt <= 0 or self.horizon <= 0 or self.gamma <= 0:
            raise ValueError("dt, horizon and gamma must be positive")
        if self.behavior_var <= 0:
            raise ValueError("behavior variance must be positive")
        if self.pg_regularizer not in ("entropy", "sampled"):
            raise ValueError("pg_regularizer must be 'entropy' or 'sampled'")
        if int(round(self.horizon / self.dt)) < 1:
            raise ValueError("horizon shorter than one step")

    @property
    def steps(self) -> int:
        return int(round(self.horizon / self.dt))


def _init_params(cfg: ErgodicExperimentConfig, algo: str, lanes: int):
    """(6, lanes) start parameters and the (6, 1) learning rate of each row.

    All parameters start at zero except the policy log-precision row, which
    starts where the policy variance is 1.
    """
    P = np.zeros((6, lanes))
    if algo == "qlearn-online":
        P[4] = math.log(1.0 / cfg.gamma)
        rates = (cfg.alpha_theta,) * 2 + (cfg.alpha_psi,) * 3
    elif algo == "sarsa":
        P[2] = math.log(1.0 / (cfg.gamma * cfg.dt))
        rates = (cfg.alpha_psi,) * 5
    elif algo == "pg":
        P[4] = math.log(1.0 / cfg.gamma)
        rates = (cfg.alpha_theta,) * 2 + (cfg.alpha_phi,) * 3
    else:
        raise ValueError(f"unknown algo {algo!r}")
    return P, np.array(rates + (cfg.alpha_v,)).reshape(6, 1)


# ---------------------------------------------------------------------------
# Update kernels


@lru_cache(maxsize=32)
def _constants(gamma: float, dt: float, rule: str):
    """The scalar constants of a step as read-only 0-d float64 arrays:
    (dt, gamma, 0.5, -0.5, 0.5 gamma, log constant, test offset, gamma dt,
    2 pi).

    A 0-d array operand costs numpy less than a Python float and gives the
    same float64 result.  `rule` is "q", "entropy", "sampled" or "sarsa";
    the log constant is log 2 pi gamma, plus 1 for "entropy", and the offset
    of the psi3 test row is gamma for "q" and 1 for policy gradient.
    """
    logc = (LOG_2PI + 1.0 + math.log(gamma) if rule == "entropy"
            else LOG_2PI + math.log(gamma))
    out = tuple(np.array(v) for v in (
        dt, gamma, 0.5, -0.5, 0.5 * gamma, logc,
        gamma if rule == "q" else 1.0, gamma * dt, 2.0 * np.pi))
    for c in out:
        c.flags.writeable = False
    return out


def rate_kernel(P, x, a, r, x2, gamma: float, dt: float, running: str, tests,
                mean=None):
    """Ergodic residual dJ + (r + running term) dt - V dt of the rate learners.

    P rows are (theta1, theta2, psi1, psi2, psi3, V), as a (6, lanes) array
    or a tuple of its rows: the value is J = theta1 x^2 + theta2 x and the
    policy N(psi1 x + psi2, gamma e^{psi3}).  `running` picks the learner:

      * "q": q-learning.  The running term is -q with the normalized
        q = -(e^{-psi3}/2)(a - psi1 x - psi2)^2 - (gamma/2)(log 2 pi gamma
        + psi3), tested against dq/dpsi.
      * "entropy" / "sampled": policy gradient.  The running term is the
        policy's entropy bonus, or -gamma log pi(a|x) at the taken action,
        tested against the score d log pi / dpsi, which is dq/dpsi / gamma.

    `mean` is the policy mean psi1 x + psi2; a caller that drew the action
    from it passes it in, otherwise it is computed here by the same
    expression.  Writes the test vectors (dJ/dtheta, dq/dpsi or score, 1)
    into the (6, lanes) buffer `tests` and returns the residual.
    """
    th1, th2, p1, p2, p3, V = P
    dt, gamma, half, mhalf, hgamma, logc, off, _, _ = _constants(gamma, dt,
                                                                 running)
    prec = np.exp(-p3)
    if running != "q":
        prec = prec / gamma
    if mean is None:
        mean = p1 * x + p2
    dev = a - mean
    np.multiply(x, x, out=tests[0])
    tests[1] = x
    pdev = np.multiply(prec, dev, out=tests[3])
    np.multiply(pdev, x, out=tests[2])
    pdd = pdev * dev
    np.multiply(pdd - off, half, out=tests[4])
    if running == "q":
        gain = r - (mhalf * pdd - hgamma * (logc + p3))
    elif running == "entropy":
        gain = r + hgamma * (logc + p3)
    else:
        gain = r - gamma * (mhalf * pdd - half * (logc + p3))
    return ((th1 * x2 * x2 + th2 * x2) - (th1 * x * x + th2 * x)
            + gain * dt - V * dt)


def sarsa_kernel(P, x, a, r, x2, a2, gamma: float, dt: float, tests):
    """SARSA bracket of the step-size Q-function in the ergodic form.

    P rows are (s1, ..., s5, V), as a (6, lanes) array or a tuple of its
    rows, with Q(x, a) = -(e^{-s3}/2)(a - s1 x - s2)^2 + s4 x^2 + s5 x, whose
    policy is N(s1 x + s2, gamma dt e^{s3}).  The bracket is
    Q(x', a') - gamma log pi(a'|x') dt - Q(x, a) + r dt - V dt for the next
    action a' drawn at x'.  Writes (dQ/ds, 1) into the (6, lanes) buffer
    `tests` and returns the bracket.
    """
    s1, s2, s3, s4, s5, V = P
    dt, gamma, half, mhalf, _, _, _, gdt, twopi = _constants(gamma, dt, "sarsa")
    var_next = gdt * np.exp(s3)
    es3 = np.exp(-s3)
    dev = a - (s1 * x + s2)
    dev2 = a2 - (s1 * x2 + s2)
    edev = np.multiply(es3, dev, out=tests[1])
    np.multiply(edev, x, out=tests[0])
    q_half = np.multiply(edev * dev, half, out=tests[2])
    np.multiply(x, x, out=tests[3])
    tests[4] = x
    q_now = -q_half + s4 * x * x + s5 * x
    q_next = mhalf * es3 * dev2 * dev2 + s4 * x2 * x2 + s5 * x2
    logp = mhalf * dev2 * dev2 / var_next - half * np.log(twopi * var_next)
    return q_next - gamma * logp * dt - q_now + r * dt - V * dt


# ---------------------------------------------------------------------------
# Drivers


def run_ergodic_replications(cfg: ErgodicExperimentConfig, algo: str, mode: str,
                             master_seed: int, reps: int) -> List[RunRecord]:
    """Run `reps` independent replications in lockstep.

    Replication r draws its observed data from stream (r, 0) and any
    learner-private randomness from stream (r, 1).
    """
    data_streams = [RngStream(master_seed, (r, 0)) for r in range(reps)]
    learner_streams = [RngStream(master_seed, (r, 1)) for r in range(reps)]
    out = _drive(cfg, algo, mode, data_streams, learner_streams)
    return [_record(algo, mode, out, r, r, master_seed) for r in range(reps)]


def run_ergodic(cfg: ErgodicExperimentConfig, algo: str, mode: str,
                rng: RngStream) -> RunRecord:
    """Single replication driven by an explicit stream (lane width one).

    `rng` is the data stream (r, 0) of replication r; the learner stream is
    (r, 1), as in `run_ergodic_replications`.
    """
    rep_id = int(rng.stream_id[0]) if rng.stream_id else 0
    out = _drive(cfg, algo, mode, [rng], [RngStream(rng.master_seed, (rep_id, 1))])
    return _record(algo, mode, out, 0, rep_id, rng.master_seed)


def _record(algo, mode, out, lane, rep_id, master_seed) -> RunRecord:
    status = "ok" if out["div_step"][lane] < 0 else "NA"
    final = {k: float(v) for k, v in zip(out["names"], out["params"][:, lane])}
    metrics = {}
    if status == "ok":
        metrics = dict(final)
        metrics["avg_reward"] = float(out["avg_reward"][lane])
    n = out["rows"][lane]
    trace = {"t": packed(out["t"][:n])}
    trace.update((k, packed(out["trace"][:n, i, lane]))
                 for i, k in enumerate(out["names"]))
    trace["reward_avg"] = packed(out["reward_avg"][:n, lane])
    return RunRecord(
        algo=algo, mode=mode, replication=rep_id, master_seed=master_seed,
        status=status,
        divergence_step=None if status == "ok" else int(out["div_step"][lane]),
        final_params=final, metrics=metrics, trace=trace,
    )


def _euler(x, px, pa, z1, h, out=None):
    """x + (A x + B a) dt + (C x + D a) sqrt(dt) z1 from the stacked
    products px = [A x, C x] and pa = [B a, D a]; h is the column
    [dt, sqrt(dt)].  The terms are added in the order written."""
    inc = px + pa
    inc *= h
    return np.add(x + inc[0], inc[1] * z1, out=out)


def _reward(px, pa, x, a):
    """-(M/2 x^2 + R x a + N/2 a^2 + P x + Q a) from the stacked products
    px = [M/2 x, R x, P x] and pa = [N/2 a, Q a], summed in the order
    written."""
    return -(px[0] * x + px[1] * a + pa[0] * a + px[2] + pa[1])


def _behaviour_path(x, a, z1, cx, ca, h):
    """States and rewards of n off-policy steps from the state x under the
    actions a and the Brownian draws z1, both (n, lanes).

    cx and ca are the coefficient columns [A, C, M/2, R, P] and
    [B, D, N/2, Q].  Returns the states (n + 1, lanes), starting at x, and
    the rewards (n, lanes), from the same expressions as the per-step path.
    """
    pa = ca.reshape(4, 1, 1) * a
    X = np.empty((len(a) + 1,) + x.shape)
    X[0] = x
    for m in range(len(a)):
        _euler(X[m], cx[:2] * X[m], pa[:2, m], z1[m], h, out=X[m + 1])
    xs = X[:-1]
    return X, _reward(cx[2:].reshape(3, 1, 1) * xs, pa[2:], xs, a)


def _drive(cfg: ErgodicExperimentConfig, algo: str, mode: str,
           data_streams: Sequence[RngStream],
           learner_streams: Sequence[RngStream]) -> dict:
    if algo not in ALGOS:
        raise ValueError(f"algo must be one of {ALGOS}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    lanes = len(data_streams)
    steps = cfg.steps
    dt = cfg.dt
    co = cfg.coef
    off_policy = (mode == "off-policy")
    b_mean, b_std = cfg.behavior_mean, math.sqrt(cfg.behavior_var)
    sarsa = (algo == "sarsa")
    running = "q" if algo == "qlearn-online" else cfg.pg_regularizer
    dt0, gamma, _, _, _, _, _, gdt, _ = _constants(
        cfg.gamma, dt, "sarsa" if sarsa else running)
    # coefficients of the stacked products with the state and the action
    cx = np.array([co.A, co.C, 0.5 * co.M, co.R, co.P]).reshape(5, 1)
    ca = np.array([co.B, co.D, 0.5 * co.N, co.Q]).reshape(4, 1)
    h = np.array([dt, math.sqrt(dt)]).reshape(2, 1)

    # The working arrays hold the live lanes only: `live` maps their columns
    # to the caller's lanes, and a lane that dies leaves every working array
    # and stream list, and its frozen parameters go into `params`.  `prows`
    # holds P's row views for the kernels and is rebuilt when P is replaced
    # by its live columns, since the old views would still read the old P
    live = np.arange(lanes)
    gens = [s.generator() for s in data_streams]
    lgens = [s.generator() for s in learner_streams] if sarsa and off_policy else None

    P, rates = _init_params(cfg, algo, lanes)
    prows = tuple(P)
    params = np.empty((6, lanes))
    tests = np.ones((6, lanes))  # the kernels leave row 5, the V test, at 1
    upd = np.empty((6, lanes))
    x = np.full(lanes, float(cfg.x0))
    reward_sum = np.zeros(lanes)
    div_step = np.full(lanes, -1, dtype=np.int64)

    record_every = max(1, steps // max(1, cfg.trace_points))
    n_rec = steps // record_every
    t_trace = np.empty(n_rec)
    p_trace = np.empty((n_rec, 6, lanes))
    r_trace = np.empty((n_rec, lanes))
    rec_i = 0

    a_cur = None
    if sarsa:
        z0 = np.array([g.standard_normal() for g in gens])
        mean0 = P[0] * x + P[1]
        std0 = np.sqrt(gdt * np.exp(P[2]))
        a_cur = (b_mean + b_std * z0) if off_policy else (mean0 + std0 * z0)

    k = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while k < steps and len(live):
            n = min(_BLOCK, steps - k)
            # filled a lane at a time from each lane's own stream
            noise = np.empty((n, 2, len(live)))
            for lane, g in enumerate(gens):
                noise[:, :, lane] = g.standard_normal((n, 2))
            lr = (np.array([cfg.schedule((k + i) * dt) for i in range(n)])
                  .reshape(n, 1, 1) * rates)
            if off_policy:
                if sarsa:
                    # a step's action is the previous step's a2
                    A2 = np.empty((n, len(live)))
                    for lane, g in enumerate(lgens):
                        A2[:, lane] = g.standard_normal(n)
                    A2 = b_mean + b_std * A2
                    A = np.concatenate((a_cur[None], A2[:-1]))
                else:
                    A = b_mean + b_std * noise[:, 0]
                X, R = _behaviour_path(x, A, noise[:, 1], cx, ca, h)
                RDT = R * dt
                OK = np.abs(X[1:]) <= STATE_GUARD
                block_ok = OK.all(1)
            for i in range(n):
                mean = None
                if off_policy:
                    a, x2, r, rdt = A[i], X[i + 1], R[i], RDT[i]
                    if sarsa:
                        a2 = A2[i]
                else:
                    z0 = noise[i, 0]
                    if sarsa:
                        a = a_cur
                    else:
                        mean = prows[2] * x + prows[3]
                        a = mean + np.sqrt(gamma * np.exp(prows[4])) * z0
                    px = cx * x
                    pa = ca * a
                    x2 = _euler(x, px[:2], pa[:2], noise[i, 1], h)
                    r = _reward(px[2:], pa[2:], x, a)
                    rdt = r * dt0
                    if sarsa:
                        a2 = (prows[0] * x2 + prows[1]
                              + np.sqrt(gdt * np.exp(prows[2])) * z0)
                if sarsa:
                    resid = sarsa_kernel(prows, x, a, r, x2, a2, cfg.gamma, dt,
                                         tests)
                else:
                    resid = rate_kernel(prows, x, a, r, x2, cfg.gamma, dt,
                                        running, tests, mean)

                # one guard, update and trace block for every learner; the
                # comparisons are written so that NaN fails them.  One test
                # over all lanes that implies the per-lane one stands in for
                # it; when it fails, the per-lane test decides
                keep = None
                if not ((block_ok[i] if off_policy
                         else x2.dot(x2) <= _STATE_GUARD2)
                        and np.abs(P).max() <= PARAM_GUARD
                        and math.isfinite(resid.dot(resid))):
                    state_ok = OK[i] if off_policy else np.abs(x2) <= STATE_GUARD
                    healthy = (state_ok & np.isfinite(resid)
                               & (np.abs(P) <= PARAM_GUARD).all(0))
                    if not healthy.all():
                        # the lanes that die keep the parameters they had
                        # before this step, in `params` and in every trace
                        # row from here on
                        dead = ~healthy
                        lost = live[dead]
                        div_step[lost] = k + i
                        params[:, lost] = P[:, dead]
                        p_trace[rec_i:, :, lost] = P[:, dead]
                        r_trace[rec_i:, lost] = np.nan
                        live = live[healthy]
                        if not len(live):
                            break
                        keep = healthy
                # the lanes that die here take the update with the rest and
                # are then dropped; their parameters were saved above
                np.multiply(lr[i], resid, out=upd)
                upd *= tests
                P += upd
                reward_sum = reward_sum + rdt
                x = x2
                if sarsa:
                    a_cur = a2
                if keep is not None:
                    P, x, reward_sum, tests, noise = (
                        v[..., keep] for v in (P, x, reward_sum, tests, noise))
                    prows = tuple(P)
                    upd = np.empty_like(P)
                    gens = list(compress(gens, keep))
                    if sarsa:
                        a_cur = a_cur[keep]
                    if off_policy:
                        A, X, RDT, R, OK = (
                            v[..., keep] for v in (A, X, RDT, R, OK))
                        block_ok = OK.all(1)
                        if sarsa:
                            A2 = A2[:, keep]
                            lgens = list(compress(lgens, keep))
                kk = k + i + 1
                if kk % record_every == 0 and rec_i < n_rec:
                    t_now = kk * dt
                    t_trace[rec_i] = t_now
                    p_trace[rec_i][:, live] = P
                    r_trace[rec_i, live] = reward_sum / t_now
                    rec_i += 1
            k += n

    if not len(live) and rec_i < n_rec:
        # the record the run would have written next: each lane's trace
        # already holds its frozen parameters and no reward average there,
        # so a lane's trace ends the same way alone or beside lanes that
        # live longer
        t_trace[rec_i] = (rec_i + 1) * record_every * dt
        rec_i += 1
    rows = np.where(div_step < 0, rec_i,
                    np.minimum(rec_i, div_step // record_every + 1))
    avg = np.full(lanes, np.nan)
    if len(live):
        params[:, live] = P
        avg[live] = reward_sum / (steps * dt)
    return {"names": PARAM_NAMES[algo], "params": params, "avg_reward": avg,
            "div_step": div_step, "t": t_trace, "trace": p_trace,
            "reward_avg": r_trace, "rows": rows}
