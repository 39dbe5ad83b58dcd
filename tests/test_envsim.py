"""The regulator's coefficients and noise streams, and the drivers'
Euler-Maruyama steps."""

import math

import numpy as np
import pytest

from ctql.envsim import LqCoefficients, RngStream
from ctql.experiments import ergodic
from ctql.experiments.ergodic import (ALGOS, MODES, ErgodicExperimentConfig,
                                      run_ergodic, run_ergodic_replications)
from ctql.experiments.mv import (MvExperimentConfig, metrics_terminal,
                                 run_mv_replications)


def test_step_euler_wealth_hand_value():
    # untrained exploratory evaluation: a = sqrt(gamma) z0 and
    # x' = x + a ((mu - r) dt + sigma sqrt(dt) z1), replayed after the pool
    # draws of the replication's stream
    cfg = MvExperimentConfig(mu=-0.5, sigma=0.1, T=0.2, dt=0.1, updates=0,
                             eval_runs=3, train_years=0.2, eval_exploratory=True)
    rec = run_mv_replications(cfg, "qlearn-td", 9, 1)[0]
    gen = RngStream(9, (0, 0)).generator()
    gen.standard_normal(cfg.pool_size)
    wealths = []
    for _ in range(3):
        x = 1.0
        for z0, z1 in gen.standard_normal((2, 2)):
            x = x + math.sqrt(0.1) * z0 * (-0.5 * 0.1 + 0.1 * math.sqrt(0.1) * z1)
        wealths.append(x)
    mean, var, sharpe = metrics_terminal(wealths, 1.0)
    assert rec.status == "ok"
    assert rec.metrics["mean"] == pytest.approx(mean, abs=1e-15)
    assert rec.metrics["variance"] == pytest.approx(var, rel=1e-12)
    assert rec.metrics["sharpe"] == pytest.approx(sharpe, rel=1e-10)


def test_step_euler_lq_hand_value():
    # two off-policy steps x' = x + (A x + B a) dt + (C x + D a) sqrt(dt) z1
    # with a = 0.5 + 2 z0 from the behaviour policy; the reward averages at
    # t = dt and 2 dt give both rewards, the second one at the stepped state
    co = LqCoefficients(A=-0.5, B=0.3, C=0.2, D=1.0, M=2.0, N=2.0, R=1.0,
                        P=1.0, Q=2.0)
    dt = 0.1
    cfg = ErgodicExperimentConfig(coef=co, dt=dt, horizon=2 * dt, x0=1.0,
                                  behavior_mean=0.5, behavior_var=4.0,
                                  trace_points=2)
    rec = run_ergodic(cfg, "qlearn-online", "off-policy", RngStream(3, (0, 0)))
    (z00, z01), (z10, _) = RngStream(3, (0, 0)).generator().standard_normal((2, 2))
    a0, a1 = 0.5 + 2.0 * z00, 0.5 + 2.0 * z10
    x1 = 1.0 + (-0.5 + 0.3 * a0) * dt + (0.2 + a0) * math.sqrt(dt) * z01
    r0 = -(1.0 + a0 + a0 * a0 + 1.0 + 2.0 * a0)
    r1 = -(x1 * x1 + x1 * a1 + a1 * a1 + x1 + 2.0 * a1)
    assert rec.trace["reward_avg"] == pytest.approx([r0, (r0 + r1) / 2], abs=1e-12)
    assert rec.metrics["avg_reward"] == pytest.approx((r0 + r1) / 2, abs=1e-12)


def test_step_euler_rejects_nonfinite():
    # an infinite action makes the first stepped state non-finite: every
    # learner marks the lane diverged at step 0 instead of raising
    cfg = ErgodicExperimentConfig(horizon=1.0, behavior_mean=math.inf)
    for algo in ALGOS:
        rec = run_ergodic_replications(cfg, algo, "off-policy", 0, 1)[0]
        assert rec.status == "NA"
        assert rec.divergence_step == 0
        assert rec.metrics == {}
        assert all(math.isfinite(v) for v in rec.final_params.values())


def test_zero_noise_closed_loop_decay():
    # no action or noise enters the state: x_k = (1 - dt)^k from x0 = 1, and
    # with reward -x^2 every learner and mode reports the same average
    co = LqCoefficients(A=-1.0, B=0.0, C=0.0, D=0.0, M=2.0, N=0.0, R=0.0,
                        P=0.0, Q=0.0)
    cfg = ErgodicExperimentConfig(coef=co, dt=0.1, horizon=1.0, x0=1.0)
    want = -np.mean(0.81 ** np.arange(10))
    for algo in ALGOS:
        for mode in MODES:
            rec = run_ergodic_replications(cfg, algo, mode, 2, 1)[0]
            assert rec.status == "ok"
            assert rec.metrics["avg_reward"] == pytest.approx(want, abs=1e-14)


def test_simulation_is_replayable_from_stream_key():
    s = RngStream(11, (4, 0))
    assert np.array_equal(s.generator().standard_normal(5),
                          s.generator().standard_normal(5))
    cfg = ErgodicExperimentConfig(horizon=2.0)
    for algo in ALGOS:
        first = run_ergodic(cfg, algo, "on-policy", s)
        again = run_ergodic(cfg, algo, "on-policy", s)
        other = run_ergodic(cfg, algo, "on-policy", RngStream(11, (5, 0)))
        assert first.to_dict() == again.to_dict()
        assert first.trace == again.trace
        assert first.final_params != other.final_params


def test_behavior_stream_is_tagged():
    # off-policy data come from the replication's data stream (r, 0) alone:
    # q-learning and policy gradient see the same rewards, and a solo run
    # keyed (r, 0) sees what lane r of a lockstep run sees
    cfg = ErgodicExperimentConfig(horizon=2.0)
    q = run_ergodic_replications(cfg, "qlearn-online", "off-policy", 8, 3)
    pg = run_ergodic_replications(cfg, "pg", "off-policy", 8, 3)
    for rq, rp in zip(q, pg):
        assert rq.trace["reward_avg"] == rp.trace["reward_avg"]
    assert q[1].trace["reward_avg"] != q[2].trace["reward_avg"]
    solo = run_ergodic(cfg, "pg", "off-policy", RngStream(8, (2, 0)))
    assert solo.trace["reward_avg"] == q[2].trace["reward_avg"]
    on = run_ergodic_replications(cfg, "qlearn-online", "on-policy", 8, 1)[0]
    assert on.trace["reward_avg"] != q[0].trace["reward_avg"]


def test_lq_reward_helper_matches_model():
    # the driver's row form of r dt against LqCoefficients.reward times
    # dt; the Euler factors are checked through the driver by
    # test_step_euler_lq_hand_value
    co = LqCoefficients(A=-1.3, B=0.7, C=0.4, D=0.9, M=1.5, N=2.5, R=0.6,
                        P=-0.8, Q=1.1)
    dt = 0.05
    x = np.array([0.0, 1.5, -0.3, 2.2])
    a = np.array([0.0, -2.0, 0.7, 0.4])
    k = np.array([-dt * v for v in (co.Q, 0.5 * co.N, co.R, 0.5 * co.M, co.P)])
    rdt = ergodic._reward_dt(np.stack((a, a * a, x * a, x * x, x)), k.reshape(5, 1))
    for i in range(len(x)):
        assert rdt[i] == pytest.approx(co.reward(float(x[i]), float(a[i])) * dt,
                                       abs=1e-14)


def test_distinct_stream_children_decorrelate():
    a = RngStream(11, (4, 0)).generator().standard_normal(5)
    b = RngStream(11, (4, 1)).generator().standard_normal(5)
    assert not np.allclose(a, b)
    with pytest.raises(ValueError):
        RngStream(-1)


def test_state_guard_aborts_episode():
    # a regulator whose state grows like 1.3^k per step; at zero learning
    # rates nothing but the state guard can end the lane
    cfg = ErgodicExperimentConfig(coef=LqCoefficients(A=3.0), horizon=50.0,
                                  alpha_theta=0.0, alpha_psi=0.0, alpha_v=0.0)
    rec = run_ergodic_replications(cfg, "qlearn-online", "on-policy", 0, 1)[0]
    assert rec.status == "NA"
    assert 40 < rec.divergence_step < 120
    assert rec.metrics == {}
