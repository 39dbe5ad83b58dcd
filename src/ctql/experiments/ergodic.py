"""Long-run average reward experiment on the scalar linear-quadratic model.

Three learners run online on a single long trajectory: the rate-based
q-learner, SARSA on a step-size Q-function, and policy gradient with a
temporal-difference critic.  On-policy runs execute the learner's own policy;
off-policy runs execute a fixed Gaussian behavior policy and feed the learner
the observed transitions.

Every learner is one instance of the ergodic martingale condition: a residual
tested against a vector of test functions.  One lane kernel, `rate_kernel`,
computes the residual of each update rule and writes its test vectors into a
(6, lanes) buffer; the rules differ only in the running term.  SARSA is the
q-learner of the step-size Q(dt) = J + q dt, so its parameters sit in the
same rows (value, then policy, then V) and its rule is the q rule at the
temperature gamma dt.  The driver holds the six parameters of every lane in
one (6, lanes) array and moves them along rate * residual * tests in a
single block shared by all three learners.

The policy-gradient arm realizes the exploration bonus as the policy's
entropy, which is the benchmark convention.  With the paper's other bonus,
-gamma log pi at the taken action, the update for this normalized Gaussian
family is the q-learner's with the actor rate alpha_phi / gamma: that
policy gradient is `qlearn-online` run at alpha_psi = alpha_phi / gamma,
and it is the portfolio's policy gradient (`experiments.mv`).  On-policy
the two bonuses agree in the conditional mean of the residual, but not of
the actor's update residual * score: the entropy is free of the action, so
the entropy route lacks the bonus's own gradient gamma dH/dpsi3 = gamma/2
per unit time.  Measured at the oracle's
parameters on an on-policy path (dt 0.01, 1e6 steps), the psi3 row's mean
of residual * score reads -10.9 standard errors on the entropy route and
1.1 with the log-density bonus.  Adding the term moves every
policy-gradient record, so the bias is left open for a change of its own.

Replications are advanced in lockstep as numpy vectors, one lane per
replication.  Each replication owns one counter-based noise stream; the
driver runs in blocks of `_BLOCK` steps and draws each block's noise as an
(n, 2) array per replication, column 0 for the action draw of the step and
column 1 for the Brownian increment.  A stream gives the same numbers however
many it is asked for at a time, so a single replication consumes exactly the
same numbers regardless of the block length or of how many lanes run beside
it, and a run's working memory depends on its lanes, not on its horizon.
Every learner draws its action when it acts, from column 0 of that step's
row.  A lane's trace ends at the first record after it diverges, if one
follows.  The driver then drops the lane from its working arrays and stops
drawing its stream; the lane's record keeps its frozen parameters, and the
driver stops once every lane has diverged, so a lane's record does not
depend on the lanes beside it either.

Every term that the data fix is computed once per block.  The Euler step
is x' = alpha x + beta a, with alpha = 1 + A dt + C sqrt(dt) z1 and
beta = B dt + D sqrt(dt) z1 from the block's draws, and r dt is one
quadratic form in x and a (`_reward_dt`) in both modes.  On-policy the
action is drawn from the Gibbs policy of the q being learned,
a = psi1 x + psi2 + e^{psi3/2} sqrt(T) z0, so the precision-weighted
squared deviation w = prec (a - psi1 x - psi2)^2 = e^{shift} T z0^2 is the
draw's alone: the block holds the psi3 test row (w - offset)/2 and the
running term's data part, its constant plus the advantage term
(`_gibbs_terms`), and the score prec dev = e^{shift} sqrt(T) z0 /
e^{psi3/2} reuses the action's e^{psi3/2}.  Off-policy the states and
rewards do not depend on the learner's parameters, so the block also holds
x^2 and r dt, and the per-step loop runs only the rule's deviation terms,
its parameter part (`_step`), the guard, the update and the trace.  In both
modes the residual's parameter-linear part theta1 (x' + x)(x' - x)
+ theta2 (x' - x) + psi3 weight psi3 - V dt is one sum over the rows of
P Y, where the rows Y (`_data_rows`) hold (x' + x)(x' - x), x' - x, the
psi3 weight and -dt, and the rows that meet psi1 and psi2 carry the data
terms instead; off-policy the block holds every step's Y.  Every expression
is elementwise in the step, and P Y sums its rows in the same order at any
width, so a lane's numbers depend neither on the block length nor on the
lanes beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Callable, List, Sequence

import numpy as np

from ..envsim import LOG_2PI, LqCoefficients, RngStream, STATE_GUARD
from .records import RunRecord, packed

# Steps whose noise, learning rates and the terms their data fix are
# computed at once.  A block's arrays hold six doubles per lane-step, or
# eleven off-policy, so a run's working memory depends on its lanes, not on
# its horizon; a lane's numbers do not depend on the block length.
_BLOCK = 256
# A sum of squared states at most this bounds every state by STATE_GUARD.
_STATE_GUARD2 = STATE_GUARD ** 2

# Runaway parameters can freeze at huge finite values once the actor score
# underflows, so divergence cannot be detected from non-finiteness alone.
# Healthy parameter paths for this model stay in single digits (the largest
# legitimate value is the SARSA log-precision log(1/(gamma dt)) ~ 6.9 at
# dt=0.01); observed runaways freeze at 50+.
PARAM_GUARD = 25.0
_PARAM_GUARD2 = PARAM_GUARD ** 2

ALGOS = ("qlearn-online", "sarsa", "pg")
MODES = ("on-policy", "off-policy")

# Rows of the (6, lanes) parameter array: the value's two, the policy's
# three and the rate V.
PARAM_NAMES = {
    "qlearn-online": ("th1", "th2", "p1", "p2", "p3", "V"),
    "sarsa": ("s4", "s5", "s1", "s2", "s3", "V"),
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
    trace_points: int = 200

    def __post_init__(self):
        # the comparisons are written so that NaN fails them
        if not all(0 < v < math.inf for v in (self.dt, self.horizon, self.gamma)):
            raise ValueError("dt, horizon and gamma must be positive")
        if not 0 < self.behavior_var < math.inf:
            raise ValueError("behavior variance must be positive")
        if not math.isfinite(self.x0):
            raise ValueError("x0 must be finite")
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
        P[4] = math.log(1.0 / (cfg.gamma * cfg.dt))
        rates = (cfg.alpha_psi,) * 5
    elif algo == "pg":
        P[4] = math.log(1.0 / cfg.gamma)
        rates = (cfg.alpha_theta,) * 2 + (cfg.alpha_phi,) * 3
    else:
        raise ValueError(f"unknown algo {algo!r}")
    return P, np.array(rates + (cfg.alpha_v,)).reshape(6, 1)


# ---------------------------------------------------------------------------
# Update kernel


@lru_cache(maxsize=32)
def _constants(gamma: float, dt: float, rule: str):
    """The scalar constants of a step as read-only 0-d float64 arrays:
    (dt, log-precision shift, 0.5, advantage weight, psi3 weight, log
    constant, test offset, temperature).

    A 0-d array operand costs numpy less than a Python float and gives the
    same float64 result.  `rule` is "q", "entropy" or "sarsa".  The
    temperature is gamma, or gamma dt for "sarsa", whose policy variance
    carries the step; the log constant is log 2 pi times the temperature,
    plus 1 for "entropy".  The running term is weighted by dt, or by 1 for
    "sarsa", whose Q(dt) carries the step: the advantage weight is half
    that (0 for "entropy", which has no advantage term) and the psi3 weight
    half the temperature times it.  The precision is e^{shift - psi3}, with
    shift -log gamma for "entropy" and 0 otherwise.  The offset of the psi3
    test row is gamma for "q", 1 for policy gradient and 0 for "sarsa",
    whose Q(dt) has no normalizer term.  `_gibbs_terms` applies the offset
    and the advantage weight; the psi3 weight times the log constant is the
    running term's constant; `_data_rows` puts the psi3 weight and -dt in
    the rows that meet psi3 and V.
    """
    temp = gamma * dt if rule == "sarsa" else gamma
    logc = (LOG_2PI + 1.0 + math.log(gamma) if rule == "entropy"
            else LOG_2PI + math.log(temp))
    off = {"q": gamma, "entropy": 1.0, "sarsa": 0.0}[rule]
    w = 0.5 if rule == "sarsa" else 0.5 * dt
    out = tuple(np.array(v) for v in (
        dt, -math.log(gamma) if rule == "entropy" else 0.0, 0.5,
        0.0 if rule == "entropy" else w, w * temp, logc, off, temp))
    for c in out:
        c.flags.writeable = False
    return out


def rate_kernel(P, x, a, r, x2, gamma: float, dt: float, running: str, tests):
    """Ergodic residual dJ + (r + running term) dt - V dt of every learner.

    P rows are (theta1, theta2, psi1, psi2, psi3, V), as a (6, lanes) array
    or a tuple of its rows: the value is J = theta1 x^2 + theta2 x and the
    policy N(psi1 x + psi2, T e^{psi3}) at the temperature T of `_constants`.
    `running` picks the learner:

      * "q": q-learning.  The running term is -q with the normalized
        q = -(e^{-psi3}/2)(a - psi1 x - psi2)^2 - (gamma/2)(log 2 pi gamma
        + psi3), tested against dq/dpsi.
      * "sarsa": SARSA on Q(x, a) = J(x) + q dt with T = gamma dt, in the
        rows (s4, s5, s1, s2, s3, V): Q = -(e^{-s3}/2)(a - s1 x - s2)^2
        + s4 x^2 + s5 x.  Its bracket Q(x', a') - gamma log pi(a'|x') dt
        - Q(x, a) + r dt - V dt is free of the next action a' for this
        normalized family, so it is the q residual with the advantage term
        already in Q units, tested against dQ/ds.
      * "entropy": policy gradient.  The running term is the policy's
        entropy bonus gamma H, tested against the score d log pi / dpsi,
        which is dq/dpsi / gamma.

    It composes the terms the transition alone fixes (`_transition`), the
    Gibbs terms of the deviation a - psi1 x - psi2 (`_gibbs_terms`), and
    the parameter part (`_step`).  Writes the test vectors (dJ/dtheta,
    dq/dpsi or score, 1) into the (6, lanes) buffer `tests`, whose row 5 it
    leaves alone, and returns the residual.
    """
    c = _constants(gamma, dt, running)
    P = np.asarray(P, float)
    dev = a - (P[2] * x + P[3])
    pdev = np.exp(c[1] - P[4]) * dev
    t4, adv = _gibbs_terms(pdev * dev, c)
    rk = r * c[0] + c[4] * c[5]
    xx, d, s2 = _transition(x, x2)
    Y = _data_rows(np.broadcast(P[0], rk, adv, d).shape, c)
    Y[0], Y[1] = s2, d
    P = P.reshape(P.shape + (1,) * (Y.ndim - P.ndim))
    return _step(P, Y, x, xx, pdev, t4, rk, adv, tests)


def _transition(x, x2, xx=None, d=None, s2=None):
    """x^2, x' - x and (x' + x)(x' - x) of the transitions x -> x2, into
    the given buffers if any."""
    d = np.subtract(x2, x, d)
    s2 = np.add(x2, x, s2)
    s2 *= d
    return np.multiply(x, x, xx), d, s2


def _gibbs_terms(w, c, t4=None, adv=None):
    """The psi3 test row (w - offset)/2 and the advantage term (advantage
    weight) w of the precision-weighted squared deviation
    w = prec (a - psi1 x - psi2)^2, at the constants c of `_constants`,
    into the given buffers if any (`adv` may be w itself)."""
    t4 = np.subtract(w, c[6], t4)
    t4 *= c[2]
    return t4, np.multiply(w, c[3], adv)


def _data_rows(shape, c):
    """The rows Y that the parameters meet in the residual, (6,) + shape:
    (x' + x)(x' - x) and x' - x, which the caller writes into rows 0 and 1,
    zero for psi1 and psi2, which enter the residual only through the
    deviation, the psi3 weight and -dt."""
    Y = np.zeros((6,) + tuple(shape))
    Y[4], Y[5] = c[4], -c[0]
    return Y


def _step(P, Y, x, xx, pdev, psi3_test, r0, r1, tests, work=None):
    """The parameter part of `rate_kernel`: writes the test rows (x^2, x,
    prec dev x, prec dev, psi3_test) into `tests` and returns the residual
    theta1 s2 + theta2 d + r0 + r1 + psi3 weight psi3 - V dt, summed in the
    order written, as one sum over the rows of P Y (`_data_rows`; into the
    buffer `work` if given) with the zero rows 2 and 3 replaced by r0 and
    r1.  J(x') - J(x) = theta1 s2 + theta2 d, dev = a - psi1 x - psi2 and
    r0 + r1 = r dt + the running term's constant + the advantage term."""
    t0, t1, t2, t3, t4, _ = tests
    t0[...] = xx
    t1[...] = x
    np.multiply(pdev, x, t2)
    t3[...] = pdev
    t4[...] = psi3_test
    terms = np.multiply(P, Y, work)
    terms[2], terms[3] = r0, r1
    return np.add.reduce(terms, 0)


# ---------------------------------------------------------------------------
# Drivers


def run_ergodic_replications(cfg: ErgodicExperimentConfig, algo: str, mode: str,
                             master_seed: int, reps: int) -> List[RunRecord]:
    """Run `reps` independent replications in lockstep; replication r
    draws from stream (r, 0)."""
    out = _drive(cfg, algo, mode, [RngStream(master_seed, (r, 0)) for r in range(reps)])
    return [_record(algo, mode, out, r, r, master_seed) for r in range(reps)]


def run_ergodic(cfg: ErgodicExperimentConfig, algo: str, mode: str,
                rng: RngStream) -> RunRecord:
    """Single replication driven by an explicit stream (lane width one):
    `rng` is the stream (r, 0) of replication r, as in
    `run_ergodic_replications`."""
    rep_id = int(rng.stream_id[0]) if rng.stream_id else 0
    out = _drive(cfg, algo, mode, [rng])
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


def _reward_dt(x, a, xx, k):
    """r dt = k0 x^2 + x (k1 a + k2) + a (k3 a + k4) at xx = x^2 with
    k = -dt (M/2, R, P, N/2, Q), summed in the order written."""
    return k[0] * xx + x * (k[1] * a + k[2]) + a * (k[3] * a + k[4])


def _drive(cfg: ErgodicExperimentConfig, algo: str, mode: str,
           streams: Sequence[RngStream]) -> dict:
    if algo not in ALGOS:
        raise ValueError(f"algo must be one of {ALGOS}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    lanes = len(streams)
    steps = cfg.steps
    dt = cfg.dt
    off_policy = (mode == "off-policy")
    b_mean, b_std = cfg.behavior_mean, math.sqrt(cfg.behavior_var)
    running = {"qlearn-online": "q", "sarsa": "sarsa", "pg": "entropy"}[algo]
    c = _constants(cfg.gamma, dt, running)
    k_run = c[4] * c[5]  # the constant of the running term
    co = cfg.coef
    k_reward = tuple(np.array(-dt * v) for v in (0.5 * co.M, co.R, co.P, 0.5 * co.N, co.Q))

    # The working arrays hold the live lanes only: `live` maps their columns
    # to the caller's lanes, and a lane that dies leaves every working array
    # and the generator list, and its frozen parameters go into `params`.
    # `prows`, `trows` and `Pf` hold the row views of P and of the tests for
    # the kernel and P's flat view for the guard, and are rebuilt when those
    # arrays are replaced by live columns
    live = np.arange(lanes)
    gens = [s.generator() for s in streams]

    P, rates = _init_params(cfg, algo, lanes)
    prows, Pf = tuple(P), P.reshape(-1)
    params = np.empty((6, lanes))
    tests = np.ones((6, lanes))  # the kernel leaves row 5, the V test, at 1
    trows = tuple(tests)
    upd = np.empty((6, lanes))
    x = np.full(lanes, float(cfg.x0))
    reward_sum = np.zeros(lanes)
    div_step = np.full(lanes, -1, dtype=np.int64)
    # A block's draws, then in place its actions and Euler factors (beta,
    # alpha), and on-policy the draw's Gibbs terms, off-policy its states,
    # x^2 and rewards; kept for reuse.  Y holds the rows that P meets in the
    # residual (`_data_rows`): one (6, lanes) block on-policy, whose rows 0
    # and 1 each step writes, and off-policy one per step of the block
    m = min(_BLOCK, steps)
    if off_policy:
        buf = np.empty((5, m + 1, lanes))
        Y = np.empty((m, 6, lanes))
        Y[:] = _data_rows((lanes,), c)
    else:
        buf = np.empty((6, m, lanes))
        Y = _data_rows((lanes,), c)
        Y0, Y1 = Y[:2]
    # on-policy the action's deviation is e^{psi3/2} sqrt(T) z0, so
    # prec dev = e^{shift} sqrt(T) z0 / e^{psi3/2} and w = prec dev^2
    # = e^{shift} T z0^2 are the draw's alone
    sqrt_t = math.sqrt(c[7])
    pscale = math.exp(c[1]) * sqrt_t
    by_sum = True  # whether the guard tries the sum of squares of P first

    record_every = max(1, steps // max(1, cfg.trace_points))
    n_rec = steps // record_every
    t_trace = np.arange(1, n_rec + 1) * record_every * dt
    p_trace = np.empty((n_rec, 6, lanes))
    r_trace = np.empty((n_rec, lanes))
    rec_i = 0

    def block_rows(buf, n):
        """The block's row views; off-policy r dt and r dt + k take the
        spent rows of alpha and beta a, and `calm` says for each step
        whether every lane's next state lies within STATE_GUARD."""
        if not off_policy:
            return tuple(buf[:, :n])
        Z, B, Al, X, XX = buf[:, :n + 1]
        calm = (np.abs(X[1:n + 1]) <= STATE_GUARD).all(1).tolist()
        return Z[:n], B[:n], Al[:n], X, XX, Al[:n], B[:n], calm

    k = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while k < steps and len(live):
            n = min(_BLOCK, steps - k)
            # each lane's (n, 2) draws from its own stream, written lane by
            # lane into the spent rows 3 and 4 and moved to rows 0 and 1 in
            # one copy
            draws = buf[3:5].reshape(-1)[:2 * n * len(live)].reshape(-1, n, 2)
            for g, out in zip(gens, draws):
                g.standard_normal(out=out)
            buf[:2, :n] = draws.transpose(2, 1, 0)
            # x' = alpha x + beta a: alpha = (1 + A dt) + C sqrt(dt) z1, then
            # beta = B dt + D sqrt(dt) z1 in place of z1
            Z, B, Al = buf[:3, :n]
            np.multiply(B, co.C * math.sqrt(dt), out=Al)
            Al += 1.0 + co.A * dt
            B *= co.D * math.sqrt(dt)
            B += co.B * dt
            times = ((k + np.arange(n)) * dt).tolist()
            lr = np.array(list(map(cfg.schedule, times))).reshape(n, 1, 1) * rates
            if off_policy:
                # the behaviour data and every term they alone fix, 64
                # steps at a time so that the temporaries stay small
                Z *= b_std
                Z += b_mean
                B *= Z
                X = buf[3, :n + 1]
                X[0] = x
                for al, b, x0, x1 in zip(Al, B, X, X[1:]):
                    np.multiply(al, x0, x1)
                    np.add(x1, b, x1)
                Z, B, Al, X, XX, RS, RK, calm = block_rows(buf, n)
                for j in range(0, n, 64):
                    cut = slice(j, min(j + 64, n))
                    x0, x1 = X[cut], X[cut.start + 1:cut.stop + 1]
                    _transition(x0, x1, XX[cut], Y[cut, 1], Y[cut, 0])
                    RS[cut] = _reward_dt(x0, Z[cut], XX[cut], k_reward)
                    np.add(RS[cut], k_run, out=RK[cut])
                RS[0] += reward_sum
                np.cumsum(RS, 0, out=RS)  # the running reward sums
            else:
                # the action's draw sqrt(T) z0, prec dev's e^{shift} sqrt(T)
                # z0, the psi3 test row and the running term's data part
                # k + advantage term, all from w = e^{shift} T z0^2
                Z, B, Al, Zp, W4, K = block_rows(buf, n)
                np.multiply(Z, pscale, out=Zp)
                Z *= sqrt_t
                np.multiply(Zp, Z, out=K)
                _gibbs_terms(K, c, W4, K)
                K += k_run
            for i in range(n):
                if off_policy:
                    x, x2 = X[i], X[i + 1]
                    dev = Z[i] - (prows[2] * x + prows[3])
                    pdev = np.exp(c[1] - prows[4]) * dev
                    t4, adv = _gibbs_terms(pdev * dev, c)
                    resid = _step(P, Y[i], x, XX[i], pdev, t4, RK[i], adv,
                                  trows, upd)
                    ok = calm[i]
                else:
                    e = np.exp(c[2] * prows[4])
                    a = prows[2] * x + prows[3] + e * Z[i]
                    x2 = Al[i] * x + B[i] * a
                    xx = _transition(x, x2, None, Y1, Y0)[0]
                    rdt = _reward_dt(x, a, xx, k_reward)
                    resid = _step(P, Y, x, xx, Zp[i] / e, W4[i], rdt, K[i],
                                  trows, upd)
                    ok = x2.dot(x2) <= _STATE_GUARD2

                # one guard, update and trace block for every learner; the
                # comparisons are written so that NaN fails them.  One test
                # over all lanes that implies the per-lane one stands in for
                # it; when it fails, the per-lane test decides.  A sum of
                # squares of P at most PARAM_GUARD^2 bounds every |P|; while
                # it exceeds that with every |P| in bounds (wide or SARSA
                # runs), the max test alone runs until a lane fails it
                keep = None
                if ok and not (by_sum and Pf.dot(Pf) <= _PARAM_GUARD2):
                    ok = np.maximum.reduce(np.abs(P), None) <= PARAM_GUARD
                    by_sum = not ok
                if not (ok and math.isfinite(resid.dot(resid))):
                    healthy = ((np.abs(x2) <= STATE_GUARD) & np.isfinite(resid)
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
                np.multiply(lr[i], resid, upd)
                upd *= tests
                P += upd
                if not off_policy:
                    reward_sum = reward_sum + rdt
                    x = x2
                if keep is not None:
                    # compress keeps the arrays C-contiguous (indexing by
                    # `keep` would not), so that Pf is a view of P and the
                    # draws' rows of buf are one run of memory
                    P, x, reward_sum, tests, Y, buf = (
                        v.compress(keep, -1) for v in (P, x, reward_sum, tests, Y, buf))
                    prows, trows, Pf = tuple(P), tuple(tests), P.reshape(-1)
                    upd = np.empty_like(P)
                    gens = list(compress(gens, keep))
                    if off_policy:
                        Z, B, Al, X, XX, RS, RK, calm = block_rows(buf, n)
                    else:
                        Z, B, Al, Zp, W4, K = block_rows(buf, n)
                        Y0, Y1 = Y[:2]
                if (k + i + 1) % record_every == 0:
                    p_trace[rec_i][:, live] = P
                    r_trace[rec_i, live] = (RS[i] if off_policy
                                            else reward_sum) / t_trace[rec_i]
                    rec_i += 1
            if off_policy and len(live):
                x, reward_sum = X[n].copy(), RS[n - 1].copy()
            k += n

    # a dead lane's trace ends at the first record after it dies (frozen
    # parameters, no reward average) or at the last, the same alone or
    # beside lanes that live longer
    rows = np.where(div_step < 0, n_rec,
                    np.minimum(n_rec, div_step // record_every + 1))
    avg = np.full(lanes, np.nan)
    if len(live):
        params[:, live] = P
        avg[live] = reward_sum / (steps * dt)
    return {"names": PARAM_NAMES[algo], "params": params, "avg_reward": avg,
            "div_step": div_step, "t": t_trace, "trace": p_trace,
            "reward_avg": r_trace, "rows": rows}
