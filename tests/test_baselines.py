"""Step-size Q-function SARSA and policy gradient baselines: the ergodic
lane kernel's rules and the mean-variance families."""

import math

import numpy as np
import pytest
from scipy import stats

from ctql.approx import mv_q_eval_grad, pg_mv_logp, pg_mv_score
from ctql.baselines import qdt_mv_eval, qdt_mv_eval_grad
from ctql.envsim import RngStream
from ctql.experiments.ergodic import (ErgodicExperimentConfig, rate_kernel,
                                      run_ergodic)

GAMMA, DT = 0.1, 0.1
# a fixed 2-lane transition with value x^2: x 1 -> 2 under a = 1, r = 2 and
# x 2 -> 3 under a = -1, r = 3
X = np.array([1.0, 2.0])
A = np.array([1.0, -1.0])
R = np.array([2.0, 3.0])
X2 = np.array([2.0, 3.0])


def _fd(f, p, i, h=1e-6):
    e = np.zeros(len(p))
    e[i] = h
    return (f(p + e) - f(p - e)) / (2 * h)


def _kernel(running, P, x=X, a=A, r=R, x2=X2):
    tests = np.ones((6, np.broadcast(x, a).size))
    return rate_kernel(P, x, a, r, x2, GAMMA, DT, running, tests), tests


def test_qdt_policy_variance_scales_with_step_size():
    # the step-size dependence the rate-based family is free of: the SARSA
    # bracket scores the next action under N(s1 x + s2, gamma dt e^{s3}),
    # whatever that action is
    s = np.array([0.3, -0.1, 0.4, 0.2, -0.5])
    P = np.array([0.2, -0.5, 0.3, -0.1, 0.4, 0.0])[:, None]  # s4, s5, s1, s2, s3, V
    x, a, r, x2, a2 = 1.0, 0.5, 2.0, 1.5, -0.3
    q = lambda x, a: -0.5 * math.exp(-0.4) * (a - 0.3 * x + 0.1) ** 2 \
        + 0.2 * x * x - 0.5 * x
    variances = []
    for dt in (0.01, 0.1):
        bracket = rate_kernel(P, x, a, r, x2, GAMMA, dt, "sarsa", np.ones((6, 1)))
        logp = (q(x2, a2) - q(x, a) + r * dt - float(bracket[0])) / (GAMMA * dt)
        var = GAMMA * dt * math.exp(0.4)
        assert logp == pytest.approx(
            stats.norm(0.3 * x2 - 0.1, math.sqrt(var)).logpdf(a2), rel=1e-9)
        variances.append(var)
    assert variances[0] / variances[1] == pytest.approx(0.1, abs=1e-15)
    # the mean-variance Q(dt) is quadratic in a with curvature
    # -e^{-p3 (T-t)} e^{-p1}: its Boltzmann policy exp(Q / (gamma dt)) has
    # variance gamma dt e^{p3 (T-t) + p1} and mean -p2 e^{p1} (x - w)
    w, z, T, t, xw = 1.3, 1.4, 1.0, 0.2, 1.0
    mean = -s[1] * math.exp(s[0]) * (xw - w)
    f = lambda a: qdt_mv_eval(*s, w, z, T, t, xw, a)
    h = 1e-3
    curv = (f(mean + h) - 2.0 * f(mean) + f(mean - h)) / h ** 2
    assert (f(mean + h) - f(mean - h)) / (2 * h) == pytest.approx(0.0, abs=1e-9)
    for dt in (0.01, 0.1):
        assert -GAMMA * dt / curv == pytest.approx(
            GAMMA * dt * math.exp(s[2] * (T - t) + s[0]), rel=1e-6)


def test_qdt_hand_values():
    got = qdt_mv_eval(0.0, 0.2, 0.0, 0.0, 0.0, 1.3, 1.4, 1.0, 1.0, 2.0, 0.5)
    quad = 0.49 + 0.2 * 0.5 * 0.7 + 0.5 * 0.25
    assert got == pytest.approx(-quad + 0.01, abs=1e-14)


def test_qdt_gradients_match_finite_differences():
    x, a = 1.2, -0.7
    psi = np.array([0.2, -0.4, 0.3, 0.1, -0.6])
    w, z, T, t = 1.3, 1.4, 1.0, 0.4
    got = np.asarray(qdt_mv_eval_grad(*psi, w, z, T, t, x, a)[1], float)
    want = [_fd(lambda p: qdt_mv_eval_grad(*p, w, z, T, t, x, a)[0], psi, i)
            for i in range(5)]
    assert np.allclose(got, want, atol=1e-7)


def test_sarsa_bracket_hand_value():
    # Q = -(1/2)(a - s1 x - s2)^2 e^{-s3} + s4 x^2 + s5 x at s = 0: the policy
    # is N(0, 0.01), and the bracket is the one of the next actions 0.5 and
    # -0.5.  The rows are (s4, s5, s1, s2, s3, V)
    P = np.zeros((6, 2))
    P[5] = 0.3
    bracket, tests = _kernel("sarsa", P)
    logp = -0.5 * 0.25 / 0.01 - 0.5 * math.log(2.0 * math.pi * 0.01)
    want = -0.125 - 0.1 * logp * 0.1 - (-0.5) + R * 0.1 - 0.03
    assert np.allclose(bracket, want, atol=1e-12)
    assert np.allclose(tests, [[1.0, 4.0], [1.0, 2.0], [1.0, -2.0],
                               [1.0, -1.0], [0.5, 0.5], [1.0, 1.0]], atol=1e-15)


def _sarsa_step(P, x, a, r, x2, dt):
    """One SARSA update in plain floats: P is (s4, s5, s1, s2, s3, V) and
    the rates are 0.2 on the Q rows and 0.1 on V."""
    s4, s5, s1, s2, s3, V = P
    dev = a - s1 * x - s2
    prec = math.exp(-s3)
    q_now = -0.5 * prec * dev * dev + s4 * x * x + s5 * x
    v_next = s4 * x2 * x2 + s5 * x2 + 0.5 * GAMMA * dt * (
        math.log(2.0 * math.pi * GAMMA * dt) + s3)
    bracket = v_next - q_now + r * dt - V * dt
    tests = (x * x, x, prec * dev * x, prec * dev, 0.5 * prec * dev * dev, 1.0)
    return [p + rate * bracket * t
            for p, rate, t in zip(P, (0.2,) * 5 + (0.1,), tests)]


def _sarsa_replay(mode, act):
    """Two driver steps of SARSA from x0 = 0.5 against the same steps in
    plain floats: each step takes its action from column 0 of its own row
    of the stream's (n, 2) block, act(P, x, z0), and its Brownian increment
    from column 1."""
    cfg = ErgodicExperimentConfig(gamma=GAMMA, dt=DT, horizon=2 * DT, x0=0.5,
                                  behavior_mean=0.5, behavior_var=4.0,
                                  alpha_psi=0.2, alpha_v=0.1)
    rec = run_ergodic(cfg, "sarsa", mode, RngStream(6, (1, 0)))
    block = RngStream(6, (1, 0)).generator().standard_normal((2, 2))
    # s3 starts at log(1 / (gamma dt)), where the policy variance is 1
    P = [0.0, 0.0, 0.0, 0.0, math.log(1.0 / (GAMMA * DT)), 0.0]
    x = 0.5
    for z0, z1 in block.tolist():
        a = act(P, x, z0)
        x2 = x - x * DT + a * math.sqrt(DT) * z1
        r = -(x * x + x * a + a * a + x + 2.0 * a)
        P = _sarsa_step(P, x, a, r, x2, DT)
        x = x2
    assert rec.status == "ok"
    for i, key in enumerate(("s4", "s5", "s1", "s2", "s3", "V")):
        assert rec.final_params[key] == pytest.approx(P[i], abs=1e-13)


def test_sarsa_bracket_accepts_external_policy():
    # off-policy SARSA plays the behaviour policy N(0.5, 4) and scores each
    # next action under its own policy N(s1 x + s2, gamma dt e^{s3}); the
    # bracket is free of that action, so no draw is spent on it
    _sarsa_replay("off-policy", lambda P, x, z0: 0.5 + 2.0 * z0)


def test_onpolicy_sarsa_acts_from_its_own_step():
    # on-policy SARSA draws its action when it acts, at that step's state and
    # parameters, from N(s1 x + s2, gamma dt e^{s3})
    _sarsa_replay("on-policy", lambda P, x, z0: P[2] * x + P[3] + math.sqrt(
        GAMMA * DT * math.exp(P[4])) * z0)


def test_pg_update_hand_value():
    # one actor step at unit rates: J = x^2, f = 0 (policy N(0, gamma)),
    # x 1 -> 2 under a = 1, r = 2, entropy bonus gamma H(pi)
    P = np.zeros((6, 1))
    P[0] = 1.0
    bonus = GAMMA * stats.norm(0.0, math.sqrt(GAMMA)).entropy()
    bracket = bonus * DT + 3.0 + 0.2
    resid, tests = _kernel("entropy", P, X[:1], A[:1], R[:1], X2[:1])
    phi = P[2:5, 0] + resid[0] * tests[2:5, 0]
    assert np.allclose(phi, bracket * np.array([10.0, 10.0, 4.5]), atol=1e-12)
    P[5] = 0.5
    resid_v, tests = _kernel("entropy", P, X[:1], A[:1], R[:1], X2[:1])
    assert np.allclose(resid_v[0] * tests[2:5, 0],
                       (bracket - 0.05) * np.array([10.0, 10.0, 4.5]), atol=1e-12)
    # a non-finite transition gives a non-finite residual, which the driver's
    # guard turns into a divergence
    hot, _ = _kernel("entropy", P, X[:1], A[:1], np.array([math.inf]), X2[:1])
    assert not np.isfinite(hot).any()


def test_pg_kernel_hand_value():
    # J = x^2, policy N(0, gamma) at f = 0: precision 1/gamma = 10
    P = np.zeros((6, 2))
    P[0] = 1.0
    P[5] = 0.5
    entropy = 0.5 * (math.log(2.0 * math.pi) + 1.0 + math.log(GAMMA))
    score = [[1.0, 4.0], [1.0, 2.0], [10.0, -20.0], [10.0, -10.0], [4.5, 4.5],
             [1.0, 1.0]]
    bonus, tests = _kernel("entropy", P)
    assert np.allclose(bonus, [3.0, 5.0] + (R + GAMMA * entropy) * DT - 0.05, atol=1e-12)
    assert np.allclose(tests, score, atol=1e-14)


def test_pg_log_density_is_scaled_q_for_wealth_family():
    rng = np.random.default_rng(4)
    w, T = 1.3, 1.0
    for _ in range(20):
        f = rng.uniform(-1.0, 1.0, 3)
        t = float(rng.uniform(0.0, T))
        x, a = rng.uniform(-1, 3, 2)
        args = (*f, w, 0.1, T, t, x, a)
        logp, score = pg_mv_logp(*args), pg_mv_score(*args)
        q, q_rows = mv_q_eval_grad(*args)
        assert 0.1 * logp == pytest.approx(q, abs=1e-12)
        assert np.allclose(0.1 * np.asarray(score, float), q_rows, atol=1e-12)


def test_family_policy_object_matches_fields():
    # pg_mv_logp is the log-density of the Gaussian policy with mean
    # -f2 (x - w) and variance gamma e^{f1 + f3 (T-t)}; its mean over actions
    # is minus the policy's entropy
    f1, f2, f3, w, T = 0.2, 0.6, -0.1, 1.3, 1.0
    t, x, a = 0.3, 1.1, -0.2
    mean, var = -f2 * (x - w), GAMMA * math.exp(f1 + f3 * (T - t))
    pol = stats.norm(mean, math.sqrt(var))
    assert pol.logpdf(a) == pytest.approx(
        pg_mv_logp(f1, f2, f3, w, GAMMA, T, t, x, a), abs=1e-12)
    nodes, weights = np.polynomial.hermite.hermgauss(16)
    acts = mean + math.sqrt(2.0 * var) * nodes
    mean_logp = float(weights @ pg_mv_logp(f1, f2, f3, w, GAMMA, T, t, x, acts))
    assert -mean_logp / math.sqrt(math.pi) == pytest.approx(pol.entropy(), abs=1e-12)


def test_pg_family_entropy_closed_form():
    # the entropy bonus is the policy mean of -gamma log pi: quadrature over
    # actions drawn at one (x, r, x') as lanes, against scipy's log-density
    f = np.array([0.2, -0.3, 0.7])
    P = np.concatenate([[0.4, -0.2], f, [0.1]])[:, None]
    var = GAMMA * math.exp(0.7)
    mu = 0.2 * 1.5 - 0.3
    pol = stats.norm(mu, math.sqrt(var))
    nodes, weights = np.polynomial.hermite.hermgauss(16)
    acts = mu + math.sqrt(2.0 * var) * nodes
    bonus, _ = _kernel("entropy", P, 1.5, acts, -1.0, 1.2)
    plain = (0.4 * 1.2 ** 2 - 0.2 * 1.2) - (0.4 * 1.5 ** 2 - 0.2 * 1.5) \
        + (-1.0 - 0.1) * DT
    # the bonus is free of the action
    assert np.all(bonus == bonus[0])
    assert (bonus[0] - plain) / DT == pytest.approx(
        -GAMMA * float(weights @ pol.logpdf(acts)) / math.sqrt(math.pi), abs=1e-12)
    assert (bonus[0] - plain) / DT == pytest.approx(GAMMA * pol.entropy(), abs=1e-12)
