"""Always-on property suite.

Each check is self-seeded and returns a CheckResult; run_all_checks drives
the full list.  The suite covers the structural identities the learners rely
on, on the code the experiment drivers run: Gibbs consistency and
normalization of the q the drivers evaluate against a written-out
log-density (the regulator's through the running terms -q and gamma H of
`rate_kernel`, the portfolio's through its q helper), the ergodic update
kernel's test vectors under each rule and the mean-variance gradient helpers
against finite differences, the mean-variance driver's episode residuals
against a brute-force double sum, zero-learning-rate no-ops of every driver,
policy improvement monotonicity (exact and Monte Carlo), the kernel's SARSA
bracket against one written out at explicit next actions and against the
q-learning residual at matched parameters, and the first-order expansion of
the step-size Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, List

import numpy as np

from ..approx import mv_q_eval_grad, mv_value_eval_grad
from ..baselines import qdt_mv_eval_grad
from ..envsim import LqCoefficients, RngStream
from ..oracle import (lq_ergodic_fixed_point, lq_policy_value,
                      policy_improvement_map, q_from_value, qdt_expansion_check)
from .ergodic import (ALGOS, MODES, PARAM_NAMES, ErgodicExperimentConfig,
                      _init_params, rate_kernel, run_ergodic_replications)
from .mv import (MV_ALGOS, MV_PARAM_NAMES, MvExperimentConfig,
                 _init_mv_params, martingale_residuals, run_mv_replications)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"[{flag}] {self.name}: {self.detail}"


def _log_normal(a, mu, var):
    """log N(a; mu, var), written out apart from the learners' families."""
    return -0.5 * (a - mu) ** 2 / var - 0.5 * math.log(2.0 * math.pi * var)


def _kernel_terms(psi, gamma: float, x: float, a):
    """q, gamma log pi(a|x) and the entropy bonus gamma H at the actions a.

    q and gamma H are read off `rate_kernel`: with theta, r and V zero,
    x' = x and dt = 1 its residual is the running term alone, -q on the "q"
    route and gamma H on "entropy".  gamma log pi is written out with
    `_log_normal` for pi = N(psi1 x + psi2, gamma e^{psi3})."""
    a = np.atleast_1d(np.asarray(a, float))
    P = (0.0, 0.0, psi[0], psi[1], psi[2], 0.0)
    q, bonus = (rate_kernel(P, x, a, 0.0, x, gamma, 1.0, running,
                            np.ones((6, a.size)))
                for running in ("q", "entropy"))
    glogp = gamma * _log_normal(a, psi[0] * x + psi[1], gamma * math.exp(psi[2]))
    return -q, glogp, np.broadcast_to(bonus, a.shape)


def _gibbs_points(seed: int, gamma: float):
    """Seeded points of the two q-families as (terms, mu, s2): terms maps an
    action array to (q, gamma log pi, gamma H or None), and N(mu, s2) is the
    policy, written out here.  The regulator's terms are those of
    `_kernel_terms` at psi* and at two random (psi, x); the portfolio's q
    comes from its q helper and gamma log pi from `_log_normal` at three
    random (psi, w, t, x) with horizon T = 1."""
    rng = np.random.default_rng(seed)
    T = 1.0
    for i in range(3):
        psi, x = ((lq_ergodic_fixed_point(gamma=gamma).psi_star, 0.7) if i == 0
                  else (rng.normal(scale=0.7, size=3), float(rng.normal())))
        # pi = N(psi1 x + psi2, gamma e^{psi3})
        yield (partial(_kernel_terms, psi, gamma, x), psi[0] * x + psi[1],
               gamma * math.exp(psi[2]))
    for _ in range(3):
        psi, w = rng.normal(scale=0.7, size=3), float(rng.normal(loc=1.4, scale=0.2))
        t, x = float(rng.uniform(0, 1)), float(rng.normal(loc=1.0))
        # pi = N(-psi2 (x - w), gamma e^{psi1 + psi3 (T-t)})
        mu, s2 = -psi[1] * (x - w), gamma * math.exp(psi[0] + psi[2] * (T - t))
        yield ((lambda a, args=(*psi, w, gamma, T, t, x), mu=mu, s2=s2: (
                    mv_q_eval_grad(*args, a)[0], gamma * _log_normal(a, mu, s2), None)),
               mu, s2)


def check_gibbs_consistency(seed: int = 0) -> CheckResult:
    """E_pi[q - gamma log pi] must vanish for every q-induced policy, and
    E_pi[gamma log pi] must equal minus the entropy bonus gamma H, by 32-node
    Gauss-Hermite quadrature over the policy's actions."""
    nodes, weights = np.polynomial.hermite.hermgauss(32)
    weights = weights / math.sqrt(math.pi)
    q_gap = h_gap = 0.0
    for terms, mu, s2 in _gibbs_points(seed, 0.1):
        q, glogp, bonus = terms(mu + math.sqrt(2.0 * s2) * nodes)
        q_gap = max(q_gap, abs(weights @ (q - glogp)))
        if bonus is not None:
            h_gap = max(h_gap, abs(weights @ (glogp + bonus)))
    return CheckResult("gibbs-consistency", max(q_gap, h_gap) < 1e-8,
                       f"max |E_pi[q - gamma log pi]| = {q_gap:.3e}, "
                       f"|E_pi[gamma log pi] + gamma H| = {h_gap:.3e} (tol 1e-8)")


def check_gibbs_normalization(seed: int = 0) -> CheckResult:
    """exp(q/gamma) must integrate to one over actions."""
    # imported here so that importing ctql.experiments does not load scipy
    from scipy.integrate import quad

    gamma = 0.1
    worst = 0.0
    for terms, mu, s2 in _gibbs_points(seed, gamma):
        span = 12.0 * math.sqrt(s2)
        val, _err = quad(lambda a: math.exp(float(terms(np.array([a]))[0][0]) / gamma),
                         mu - span, mu + span, limit=200)
        worst = max(worst, abs(val - 1.0))
    return CheckResult("gibbs-normalization", worst < 1e-8,
                       f"max |int exp(q/gamma) da - 1| = {worst:.3e} (tol 1e-8)")


def _fd_grad(fn: Callable[[np.ndarray], float], p: np.ndarray) -> np.ndarray:
    out = np.empty_like(p)
    for i in range(p.size):
        h = 1e-6 * max(1.0, abs(p[i]))
        up, dn = p.copy(), p.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (fn(up) - fn(dn)) / (2.0 * h)
    return out


def check_gradients(seed: int = 0) -> CheckResult:
    """Analytic parameter gradients against central differences.

    The ergodic kernel's test vectors are checked through its residuals
    at a transition that ends at x' = 0, where J(x') vanishes: there the
    residual's parameter gradient is minus the test vector, scaled by the
    step on the q rows and the V row, plus the derivative gamma dt / 2 in
    psi3 or s3 of the action-free gamma H dt (policy gradient, whose psi
    rows carry nothing else) or Q(x', a') - gamma log pi(a'|x') dt (SARSA).
    The policy-gradient score rows are checked against the log-density of
    the policy, which does not go through the kernel.  The mean-variance
    fused helpers' rows are checked against their own values.
    """
    rng = np.random.default_rng(seed)
    gamma, T, dt = 0.1, 1.0, 0.04
    w, z = 1.35, 1.4
    t = float(rng.uniform(0, T))
    x = float(rng.normal(loc=1.0))
    a = float(rng.normal())
    r = float(rng.normal())
    psi3_shift = np.array([0, 0, 0, 0, 0.5 * gamma * dt, 0])
    cases = []
    for name, running, scale, shift in (
            ("q kernel", "q", [1, 1, dt, dt, dt, dt], 0.0),
            ("pg kernel", "entropy", [1, 1, 0, 0, 0, dt], psi3_shift),
            ("sarsa kernel", "sarsa", [1, 1, 1, 1, 1, dt], psi3_shift)):
        args = (x, a, r, 0.0, gamma, dt, running)
        P = rng.normal(scale=0.5, size=6)
        tests = np.ones((6, 1))
        rate_kernel(P.reshape(6, 1), *args, tests)
        want = shift - np.asarray(scale, float) * tests[:, 0]
        cases.append((name,
                      lambda p, args=args: float(rate_kernel(
                          p.reshape(6, 1), *args, np.ones((6, 1)))[0]),
                      lambda p, want=want: want, P))
    for name, fused, n, args in (
            ("mv_value", mv_value_eval_grad, 3, (w, z, T, t, x)),
            ("mv_q", mv_q_eval_grad, 3, (w, gamma, T, t, x, a)),
            ("qdt_mv", qdt_mv_eval_grad, 5, (w, z, T, t, x, a))):
        cases.append((name, lambda p, f=fused, args=args: float(f(*p, *args)[0]),
                      lambda p, f=fused, args=args: np.asarray(f(*p, *args)[1], float),
                      rng.normal(scale=0.5, size=n)))

    # the policy-gradient kernel's score rows against the policy's own
    # log-density log N(a; psi1 x + psi2, gamma e^{psi3}), written out here
    # so that the kernel's 1/gamma precision scale is checked
    def pg_log_density(psi):
        return _log_normal(a, psi[0] * x + psi[1], gamma * math.exp(psi[2]))

    def pg_score(psi):
        P = np.zeros((6, 1))
        P[2:5, 0] = psi
        tests = np.ones((6, 1))
        rate_kernel(P, x, a, r, 0.0, gamma, dt, "entropy", tests)
        return tests[2:5, 0]

    cases.append(("pg score", pg_log_density, pg_score,
                  rng.normal(scale=0.5, size=3)))
    worst = 0.0
    worst_name = ""
    for name, val, grad, p in cases:
        g = grad(p)
        fd = _fd_grad(val, p)
        err = float(np.max(np.abs(g - fd) / np.maximum(1.0, np.abs(fd))))
        if err > worst:
            worst, worst_name = err, name
    return CheckResult("analytic-gradients", worst < 1e-5,
                       f"max relative error {worst:.3e} ({worst_name}; tol 1e-5)")


def check_loss_recursion(seed: int = 0) -> CheckResult:
    """The mean-variance driver's backward recursion for the episode
    residuals against a double loop, on its (lanes, K, batch) layout."""
    rng = np.random.default_rng(seed)
    L, K, B = 2, 64, 3
    dt = 1.0 / K
    terminal = rng.normal(size=(L, 1, B))
    js = rng.normal(size=(L, K, B))
    running = rng.normal(size=(L, K, B))
    g_fast = martingale_residuals(terminal, js, running, dt, axis=1)
    g_slow = np.empty((L, K, B))
    for k in range(K):
        g_slow[:, k] = terminal[:, 0] - js[:, k] + sum(running[:, i] * dt
                                                      for i in range(k, K))
    worst = float(np.max(np.abs(g_fast - g_slow)))
    return CheckResult("loss-recursion", worst < 1e-12,
                       f"max |recursive - brute force| = {worst:.3e} (tol 1e-12)")


def check_zero_rate(seed: int = 0) -> CheckResult:
    """Zero learning rates must leave every parameter of every driver
    untouched, over a short run."""
    lanes = 2
    exact = []
    cfg = ErgodicExperimentConfig(horizon=2.0, alpha_theta=0.0, alpha_psi=0.0,
                                  alpha_v=0.0, alpha_phi=0.0)
    for algo in ALGOS:
        start, _rates = _init_params(cfg, algo, lanes)
        for mode in MODES:
            recs = run_ergodic_replications(cfg, algo, mode, seed, lanes)
            exact.append(all(
                rec.status == "ok"
                and [rec.final_params[k] for k in PARAM_NAMES[algo]] == start[:, i].tolist()
                for i, rec in enumerate(recs)))
    mv_cfg = MvExperimentConfig(updates=10, batch=2, eval_runs=2, train_years=2.0,
                                alpha_theta=0.0, alpha_psi=0.0, alpha_phi=0.0,
                                alpha_w=0.0)
    for algo in MV_ALGOS:
        start, _rates = _init_mv_params(mv_cfg, algo, lanes)
        recs = run_mv_replications(mv_cfg, algo, seed, lanes)
        exact.append(all(
            rec.status == "ok"
            and rec.final_params == dict(zip(MV_PARAM_NAMES[algo], start[:, i].tolist()))
            for i, rec in enumerate(recs)))
    ok = all(exact)
    return CheckResult("zero-rate-identity", ok,
                       f"{sum(exact)}/{len(exact)} driver runs are exact no-ops")


def _improved_policy(coef: LqCoefficients, gamma: float, k: float, m: float,
                     s2: float):
    """One improvement step: evaluate, then take the Gibbs policy of H."""
    theta, _v = lq_policy_value(coef, gamma, k, m, s2)
    return policy_improvement_map(coef, theta, gamma)


def check_improvement_exact(seed: int = 0) -> CheckResult:
    """Improvement step must not decrease the exact regularized value."""
    rng = np.random.default_rng(seed)
    coef = LqCoefficients()
    gamma = 0.1
    tried = 0
    worst = -math.inf
    while tried < 20:
        k = float(rng.uniform(-1.2, 0.6))
        m = float(rng.uniform(-1.5, 0.5))
        s2 = float(rng.uniform(0.02, 1.5))
        if 2.0 * (coef.A + coef.B * k) + (coef.C + coef.D * k) ** 2 >= -1e-3:
            continue
        tried += 1
        _, v0 = lq_policy_value(coef, gamma, k, m, s2)
        k1, m1, s1 = _improved_policy(coef, gamma, k, m, s2)
        _, v1 = lq_policy_value(coef, gamma, k1, m1, s1)
        worst = max(worst, v0 - v1)
    return CheckResult("improvement-exact", worst < 1e-9,
                       f"max value drop over 20 policies = {worst:.3e} (tol 1e-9)")


def _mc_regularized_value(coef: LqCoefficients, gamma: float, k: float,
                          m: float, s2: float, rng, lanes: int = 100,
                          horizon: float = 100.0, dt: float = 0.01):
    """Lane-averaged long-run reward plus entropy bonus, with standard error."""
    gen = rng.generator()
    steps = int(round(horizon / dt))
    burn = steps // 10
    sq = math.sqrt(dt)
    std = math.sqrt(s2)
    x = np.zeros(lanes)
    acc = np.zeros(lanes)
    for i in range(steps):
        noise = gen.standard_normal((2, lanes))
        a = k * x + m + std * noise[0]
        r = coef.reward(x, a)
        if i >= burn:
            acc += r
        x = x + (coef.A * x + coef.B * a) * dt + (coef.C * x + coef.D * a) * sq * noise[1]
    vals = acc / (steps - burn) + gamma * 0.5 * math.log(2.0 * math.pi * math.e * s2)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(lanes))


def check_improvement_mc(seed: int = 0) -> CheckResult:
    """Monte Carlo version of the monotonicity on three starting policies."""
    coef = LqCoefficients()
    gamma = 0.1
    policies = [(0.0, 0.0, gamma), (-0.6, -0.3, 0.5), (-0.2, -1.0, 0.05)]
    worst = -math.inf
    details = []
    for i, (k, m, s2) in enumerate(policies):
        k1, m1, s1 = _improved_policy(coef, gamma, k, m, s2)
        v0, se0 = _mc_regularized_value(coef, gamma, k, m, s2,
                                        RngStream(seed, (701, i, 0)))
        v1, se1 = _mc_regularized_value(coef, gamma, k1, m1, s1,
                                        RngStream(seed, (701, i, 1)))
        se = math.hypot(se0, se1)
        worst = max(worst, (v0 - v1) / se)
        details.append(f"{v1 - v0:+.4f}")
    return CheckResult("improvement-monte-carlo", worst < 3.0,
                       f"value gains {', '.join(details)}; worst drop {worst:.2f} SE (tol 3)")


def check_sarsa_bracket(seed: int = 0) -> CheckResult:
    """The kernel's SARSA bracket, which it computes without the next
    action, against the bracket written out at five explicit next actions
    and against the q-learning residual, on 20 random transitions at the
    oracle's parameters, where the step-size Q matches J + q dt.

    For this normalized family Q(x', a') - gamma log pi(a'|x') dt is free
    of a', so both identities hold pointwise up to roundoff.
    """
    sol = lq_ergodic_fixed_point()
    gamma, dt, n = sol.gamma, 0.1, 20
    th, ps = sol.theta_star, sol.psi_star
    P_q = np.array([th[0], th[1], ps[0], ps[1], ps[2], sol.V_star]).reshape(6, 1)
    # e^{-s3} = dt e^{-p3} lines the advantage block up with q psi
    P_s = np.array([th[0], th[1], ps[0], ps[1], ps[2] - math.log(dt), sol.V_star])
    s4, s5, s1, s2, s3, V = P_s
    coef = LqCoefficients()
    x, a, z = RngStream(seed, (702,)).generator().normal(size=(3, n))
    r = coef.reward(x, a)
    x2 = x + (coef.A * x + coef.B * a) * dt + (coef.C * x + coef.D * a) * math.sqrt(dt) * z
    bracket = rate_kernel(P_s.reshape(6, 1), x, a, r, x2, gamma, dt, "sarsa",
                          np.ones((6, n)))
    delta = rate_kernel(P_q, x, a, r, x2, gamma, dt, "q", np.ones((6, n)))

    def q_step(x, a):
        return -0.5 * math.exp(-s3) * (a - s1 * x - s2) ** 2 + s4 * x * x + s5 * x

    a2 = np.array([-2.0, -0.5, 0.0, 0.3, 1.5]).reshape(5, 1)
    written = (q_step(x2, a2)
               - gamma * dt * _log_normal(a2, s1 * x2 + s2, gamma * dt * math.exp(s3))
               - q_step(x, a) + r * dt - V * dt)
    gap_written = float(np.abs(written - bracket).max())
    gap_q = float(np.abs(bracket - delta).max())
    return CheckResult("sarsa-bracket", max(gap_written, gap_q) < 1e-12,
                       f"max |bracket - written out| at 5 next actions "
                       f"{gap_written:.1e}; max |bracket - q residual| "
                       f"{gap_q:.1e} (tol 1e-12)")


def check_qdt_intercept(seed: int = 0) -> CheckResult:
    """First-order expansion of the window value: the rate term must match q."""
    sol = lq_ergodic_fixed_point()
    coef = LqCoefficients()
    worst = 0.0
    details = []
    for i, (x, a) in enumerate([(1.0, 0.0), (1.0, 0.5)]):
        _slope, intercept = qdt_expansion_check(
            coef, sol.theta_star, x, a, [0.1, 0.05, 0.025], V=sol.V_star,
            n_paths=100_000, rng=RngStream(seed, (703, i)))
        q_true = q_from_value(coef, sol.theta_star, sol.V_star, x, a)
        err = abs(intercept - q_true)
        worst = max(worst, err)
        details.append(f"q({x:g},{a:g}) err {err:.3f}")
    return CheckResult("qdt-expansion-intercept", worst < 0.05,
                       f"{'; '.join(details)} (tol 0.05)")


def run_all_checks(seed: int = 0) -> List[CheckResult]:
    return [
        check_gibbs_consistency(seed),
        check_gibbs_normalization(seed),
        check_gradients(seed),
        check_loss_recursion(seed),
        check_zero_rate(seed),
        check_improvement_exact(seed),
        check_improvement_mc(seed),
        check_sarsa_bracket(seed),
        check_qdt_intercept(seed),
    ]
