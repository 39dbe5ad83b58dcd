"""Update rules of the learners: the ergodic lane kernel, the episode
residuals of the mean-variance driver, zero-rate no-ops and schedules."""

import math

import numpy as np
import pytest

from ctql.approx import LOG_2PI
from ctql.envsim import LqCoefficients, RngStream
from ctql.experiments.ergodic import (ALGOS, MODES, PARAM_NAMES,
                                      ErgodicExperimentConfig, rate_kernel,
                                      run_ergodic, run_ergodic_replications,
                                      sqrt_log_schedule)
from ctql.experiments.mv import (MV_ALGOS, MvExperimentConfig,
                                 martingale_residuals, power_schedule,
                                 run_mv_replications)

# two transitions x: 1 -> 2 -> 3 with value x^2 and a flat q family; every
# number below is expanded by hand
C0 = -0.05 * (LOG_2PI + math.log(0.1))
NET0 = (2.0 - (-0.5 + C0)) * 0.1
NET1 = (3.0 - (-0.5 + C0)) * 0.1
G0 = 8.0 + NET0 + NET1
G1 = 5.0 + NET1
D0 = 3.0 + NET0
D1 = 5.0 + NET1
X = np.array([1.0, 2.0])
A = np.array([1.0, -1.0])
R = np.array([2.0, 3.0])
X2 = np.array([2.0, 3.0])


def _q_params(V=0.0):
    """theta = (1, 0), psi = 0, one column per lane."""
    P = np.zeros((6, 2))
    P[0] = 1.0
    P[5] = V
    return P


def test_td_residuals_hand_values():
    tests = np.full((6, 2), np.nan)
    delta = rate_kernel(_q_params(), X, A, R, X2, 0.1, 0.1, "q", tests)
    assert np.allclose(delta, [D0, D1], atol=1e-13)
    # (dJ/dtheta, dq/dpsi) at each left end; row 5, the V test, is not
    # the kernel's to write
    assert np.allclose(tests[:5], [[1.0, 4.0], [1.0, 2.0], [1.0, -2.0],
                                   [1.0, -1.0], [0.45, 0.45]], atol=1e-15)
    assert np.isnan(tests[5]).all()
    erg = rate_kernel(_q_params(V=0.7), X, A, R, X2, 0.1, 0.1, "q", tests)
    assert np.allclose(erg, delta - 0.07, atol=1e-13)
    # the episode residuals aggregate the step residuals at a pinned payoff
    g = martingale_residuals(np.array(9.0), np.array([1.0, 4.0]),
                             R - (-0.5 + C0), 0.1)
    assert g[1] == pytest.approx(delta[1], abs=1e-13)
    assert g[0] == pytest.approx(delta[0] + delta[1], abs=1e-13)


def test_online_td_update_matches_first_step():
    # one driver step of on-policy q-learning from x0 = 0.5, replayed from the
    # data stream and expanded by hand: theta = 0, psi = (0, 0, log 1/gamma)
    gamma, dt = 0.1, 0.1
    cfg = ErgodicExperimentConfig(gamma=gamma, dt=dt, horizon=dt, x0=0.5,
                                  alpha_theta=0.3, alpha_psi=0.2, alpha_v=0.1)
    rec = run_ergodic(cfg, "qlearn-online", "on-policy", RngStream(4, (2, 0)))
    z0 = RngStream(4, (2, 0)).generator().standard_normal((1, 2))[0, 0]
    # the policy is N(0, gamma e^{psi3}) = N(0, 1) and q's precision e^{-psi3}
    # is gamma; theta = 0 leaves J(x') - J(x) = 0, so z1 does not enter
    x, a = 0.5, z0
    r = -(x * x + x * a + a * a + x + 2.0 * a)
    q = -0.5 * gamma * a * a - 0.5 * gamma * LOG_2PI
    delta = (r - q) * dt
    want = {"th1": 0.3 * delta * x * x, "th2": 0.3 * delta * x,
            "p1": 0.2 * delta * gamma * a * x, "p2": 0.2 * delta * gamma * a,
            "p3": -math.log(gamma) + 0.2 * delta * 0.5 * (gamma * a * a - gamma),
            "V": 0.1 * delta}
    assert rec.status == "ok"
    for key, val in want.items():
        assert rec.final_params[key] == pytest.approx(val, abs=1e-14)


def test_ergodic_update_learns_rate():
    # one update at unit rates (0.2 for V) on x 1 -> 2 under a = 1, r = 2
    # from V = 0.5: the rate enters the residual as -V dt and moves by its
    # own rate times the residual
    P = _q_params(V=0.5)[:, :1]
    tests = np.ones((6, 1))
    delta = rate_kernel(P, X[:1], A[:1], R[:1], X2[:1], 0.1, 0.1, "q", tests)
    d = D0 - 0.5 * 0.1
    assert delta[0] == pytest.approx(d, abs=1e-13)
    new = P + np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.2])[:, None] * delta * tests
    assert np.allclose(new[:2, 0], [1.0 + d, d], atol=1e-13)
    assert np.allclose(new[2:5, 0], np.array([1.0, 1.0, 0.45]) * d, atol=1e-13)
    assert new[5, 0] == pytest.approx(0.5 + 0.2 * d, abs=1e-13)

    # in the driver, with the value and q frozen, V runs the recursion
    # V += alpha_v (r - q - V) dt along the off-policy data
    gamma, dt, steps = 0.1, 0.1, 10
    cfg = ErgodicExperimentConfig(gamma=gamma, dt=dt, horizon=steps * dt,
                                  alpha_theta=0.0, alpha_psi=0.0, alpha_v=0.5,
                                  schedule=lambda t: 1.0, trace_points=steps)
    rec = run_ergodic(cfg, "qlearn-online", "off-policy", RngStream(7, (0, 0)))
    noise = RngStream(7, (0, 0)).generator().standard_normal((steps, 2))
    co = LqCoefficients()
    x, V, want = 0.0, 0.0, []
    for z0, z1 in noise:
        a = z0
        r = co.reward(x, a)
        # the flat family psi = (0, 0, log 1/gamma): q = -(gamma/2)(a^2 + log 2 pi)
        q = -0.5 * gamma * (a * a + LOG_2PI)
        V += 0.5 * (r - q - V) * dt
        want.append(V)
        x = x + (co.A * x + co.B * a) * dt + (co.C * x + co.D * a) * math.sqrt(dt) * z1
    assert rec.status == "ok"
    assert np.allclose(rec.trace["V"], want, atol=1e-13)
    assert rec.final_params["V"] == pytest.approx(want[-1], abs=1e-13)
    assert rec.final_params["th1"] == 0.0 and rec.final_params["p2"] == 0.0


def test_martingale_residuals_hand_values():
    running = R - (-0.5 + C0)
    kept = running.copy()
    g = martingale_residuals(np.array(9.0), np.array([1.0, 4.0]), running, 0.1)
    assert np.allclose(g, [G0, G1], atol=1e-13)
    assert np.array_equal(running, kept)
    # into a buffer, as the driver calls it: the tail sums overwrite running
    out = np.empty(2)
    got = martingale_residuals(np.array(9.0), np.array([1.0, 4.0]), running, 0.1,
                               out=out)
    assert got is out and out.tobytes() == g.tobytes()
    assert np.array_equal(running, [(kept[0] + kept[1]) * 0.1, kept[1] * 0.1])


def test_episode_and_step_routes_agree_on_simulated_data():
    # one simulated path, its K transitions run as K lanes of the kernel
    co = LqCoefficients()
    K, dt, gamma = 30, 0.1, 0.1
    gen = RngStream(21).generator()
    xs = np.empty(K + 1)
    xs[0] = 0.5
    acts = np.empty(K)
    for k in range(K):
        acts[k] = 0.2 * xs[k] - 0.1 + 0.3 * gen.standard_normal()
        xs[k + 1] = xs[k] + (co.A * xs[k] + co.B * acts[k]) * dt \
            + (co.C * xs[k] + co.D * acts[k]) * math.sqrt(dt) * gen.standard_normal()
    rewards = co.reward(xs[:-1], acts)
    theta, psi = np.array([0.4, -0.2]), np.array([0.1, -0.3, 0.2])
    P = np.concatenate([theta, psi, [0.0]])[:, None]
    delta = rate_kernel(P, xs[:-1], acts, rewards, xs[1:], gamma, dt, "q",
                        np.ones((6, K)))
    J = theta[0] * xs ** 2 + theta[1] * xs
    # the normalized q of the policy N(psi1 x + psi2, gamma e^{psi3})
    q = -0.5 * math.exp(-psi[2]) * (acts - psi[0] * xs[:-1] - psi[1]) ** 2 \
        - 0.5 * gamma * (LOG_2PI + math.log(gamma) + psi[2])
    g = martingale_residuals(J[-1], J[:-1], rewards - q, dt)
    assert np.allclose(g, np.flip(np.cumsum(np.flip(delta))), atol=1e-10)


def _written_out_rule(P, x, a, r, x2, gamma, dt, running):
    """The residual and five test rows of one lane in plain floats, in the
    kernel's earlier arithmetic: J(x') - J(x) as the difference of the two
    values, and each running term on its own."""
    th1, th2, p1, p2, p3, V = P
    temp = gamma * dt if running == "sarsa" else gamma
    logc = (LOG_2PI + 1.0 + math.log(gamma) if running == "entropy"
            else LOG_2PI + math.log(temp))
    off = {"q": gamma, "entropy": 1.0, "sarsa": 0.0}[running]
    prec = math.exp(-p3)
    if running == "entropy":
        prec = prec / gamma
    dev = a - (p1 * x + p2)
    pdev = prec * dev
    pdd = pdev * dev
    tests = [x * x, x, pdev * x, pdev, (pdd - off) * 0.5]
    if running == "entropy":
        gain = (r + 0.5 * temp * (logc + p3)) * dt
    else:
        q = -0.5 * pdd - 0.5 * temp * (logc + p3)
        gain = (r - q) * dt if running == "q" else r * dt - q
    resid = ((th1 * x2 * x2 + th2 * x2) - (th1 * x * x + th2 * x)
             + gain - V * dt)
    return resid, tests


@pytest.mark.parametrize("lanes", [1, 20])
@pytest.mark.parametrize("running", ["q", "entropy", "sarsa"])
def test_rate_kernel_keeps_the_written_out_rules(running, lanes):
    # seeded points with |x| up to 1e3, the model's reward, and x' = x in
    # every odd lane, where J(x') - J(x) is exactly zero both ways
    gamma, dt = 0.1, 0.1
    rng = np.random.default_rng(lanes)
    x = rng.uniform(-1.0, 1.0, lanes) * 10.0 ** rng.uniform(-2.0, 3.0, lanes)
    x2 = x + rng.normal(scale=0.3, size=lanes) * np.abs(x)
    x2[1::2] = x[1::2]
    a = rng.normal(size=lanes) * (1.0 + np.abs(x))
    r = LqCoefficients().reward(x, a)
    P = rng.normal(scale=0.5, size=(6, lanes))
    tests = np.ones((6, lanes))
    resid = rate_kernel(P, x, a, r, x2, gamma, dt, running, tests)
    for i in range(lanes):
        lane = [float(v) for v in (x[i], a[i], r[i], x2[i])]
        want, rows = _written_out_rule(P[:, i].tolist(), *lane, gamma, dt, running)
        assert resid[i] == pytest.approx(want, rel=1e-12, abs=0.0)
        assert tests[:5, i] == pytest.approx(rows, rel=1e-12, abs=0.0)
    assert (tests[5] == 1.0).all()


def test_zero_rates_are_no_ops():
    cfg = ErgodicExperimentConfig(horizon=2.0, alpha_theta=0.0, alpha_psi=0.0,
                                  alpha_v=0.0, alpha_phi=0.0)
    for algo in ALGOS:
        for mode in MODES:
            for rec in run_ergodic_replications(cfg, algo, mode, 3, 2):
                assert rec.status == "ok"
                for key in PARAM_NAMES[algo]:
                    column = rec.trace[key]
                    assert len(set(column)) == 1
                    assert rec.final_params[key] == column[0]
                assert rec.final_params["V"] == 0.0
    mv_cfg = MvExperimentConfig(updates=10, batch=2, eval_runs=2, train_years=2.0,
                                alpha_theta=0.0, alpha_psi=0.0, alpha_phi=0.0,
                                alpha_w=0.0, trace_points=5)
    for algo in MV_ALGOS:
        rec = run_mv_replications(mv_cfg, algo, 3, 1)[0]
        assert rec.status == "ok"
        assert rec.final_params["w"] == mv_cfg.z
        assert all(v == 0.0 for k, v in rec.final_params.items() if k != "w")


def test_schedules():
    sched = power_schedule(0.5)
    assert sched(4.0) == pytest.approx(0.5, abs=1e-15)
    assert sched(0.3) == 1.0
    assert "0.5" in sched.__name__
    assert sqrt_log_schedule(1.0) == 1.0
    assert sqrt_log_schedule(math.e) == 1.0
    assert sqrt_log_schedule(math.e ** 4) == pytest.approx(0.5, abs=1e-14)
    grid = np.linspace(1.0, 200.0, 50)
    vals = [sqrt_log_schedule(g) for g in grid]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_config_validation():
    with pytest.raises(ValueError):
        ErgodicExperimentConfig(gamma=0.0)
    with pytest.raises(ValueError):
        ErgodicExperimentConfig(dt=0.1, horizon=0.01)
    with pytest.raises(ValueError):
        MvExperimentConfig(gamma=0.0)
    # NaN and infinity fail the positivity checks
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            MvExperimentConfig(T=bad)
        with pytest.raises(ValueError):
            ErgodicExperimentConfig(dt=bad)
