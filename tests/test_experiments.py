"""Experiment drivers, run records and the command line front end."""

import ast
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import types
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ctql
from ctql import approx
from ctql.envsim import STATE_GUARD, LqCoefficients, RngStream
from ctql.experiments import checks, ergodic, mv
from ctql.experiments.checks import (check_gibbs_consistency,
                                    check_gibbs_normalization,
                                    check_sarsa_bracket)
from ctql.experiments.cli import main
from ctql.experiments.ergodic import (ALGOS, MODES, ErgodicExperimentConfig,
                                      run_ergodic, run_ergodic_replications)
from ctql.experiments.mv import (MV_ALGOS, MvExperimentConfig, lagrange_update,
                                 metrics_terminal, run_mv, run_mv_replications)
from ctql.experiments.records import (RunRecord, aggregate_metrics,
                                      config_dict, packed, write_summary,
                                      write_trace_csv)

SHORT = ErgodicExperimentConfig(horizon=200.0)
# hot learning rates make lanes diverge at different steps
HOT = ErgodicExperimentConfig(horizon=300.0, alpha_theta=0.2, alpha_psi=0.2,
                              alpha_v=0.2, alpha_phi=0.2)


def small_mv(**kw):
    base = dict(updates=40, batch=8, eval_runs=10, train_years=2.0)
    base.update(kw)
    return MvExperimentConfig(**base)


def _same_record(a, b):
    """Bit-for-bit equality of two run records, NaNs included."""
    assert (a.status, a.divergence_step, a.replication, a.master_seed) == \
        (b.status, b.divergence_step, b.replication, b.master_seed)
    for x, y in ((a.final_params, b.final_params), (a.metrics, b.metrics),
                 (a.trace, b.trace)):
        assert sorted(x) == sorted(y)
        for k in x:
            assert np.asarray(x[k], float).tobytes() == np.asarray(y[k], float).tobytes(), k


@st.composite
def _lane_of(draw, max_lanes):
    lanes = draw(st.integers(1, max_lanes))
    return lanes, draw(st.integers(0, lanes - 1))


def test_running_average_reward_hand_values():
    # reward x^2 along x_k = 2^-k (A = -1, dt = 0.5, nothing else enters):
    # rewards 1, 1/4, 1/16, 1/64, and the trace keeps every second average
    co = LqCoefficients(A=-1.0, B=0.0, C=0.0, D=0.0, M=-2.0, N=0.0, R=0.0,
                        P=0.0, Q=0.0)
    cfg = ErgodicExperimentConfig(coef=co, dt=0.5, horizon=2.0, x0=1.0,
                                  trace_points=2)
    rec = run_ergodic_replications(cfg, "qlearn-online", "on-policy", 0, 1)[0]
    assert rec.trace["t"].tolist() == [1.0, 2.0]
    assert rec.trace["reward_avg"].tolist() == [0.625, 0.33203125]
    assert rec.metrics["avg_reward"] == 0.33203125
    every = run_ergodic_replications(dataclasses.replace(cfg, trace_points=4),
                                     "qlearn-online", "on-policy", 0, 1)[0]
    assert every.trace["t"].tolist() == [0.5, 1.0, 1.5, 2.0]
    assert every.trace["reward_avg"].tolist() == [1.0, 0.625, 0.4375, 0.33203125]


# High learning rates make some lanes diverge within the short horizon, so
# the replay also covers a lane whose trace ends before the others'.
@settings(max_examples=30, deadline=None)
@given(algo=st.sampled_from(ALGOS), mode=st.sampled_from(MODES),
       lane=_lane_of(4), seed=st.integers(0, 50), fast=st.booleans())
@example(algo="sarsa", mode="off-policy", lane=(2, 1), seed=17, fast=False)
def test_scalar_and_lane_ergodic_drivers_agree(algo, mode, lane, seed, fast):
    lanes, r = lane
    rate = 0.05 if fast else 0.001
    cfg = ErgodicExperimentConfig(horizon=20.0, trace_points=40, alpha_theta=rate,
                                  alpha_psi=rate, alpha_v=rate, alpha_phi=rate)
    recs = run_ergodic_replications(cfg, algo, mode, seed, lanes)
    solo = run_ergodic(cfg, algo, mode, RngStream(seed, (r, 0)))
    assert solo.replication == r
    _same_record(solo, recs[r])


def test_all_dead_run_stops_at_its_last_divergence():
    cfg = ErgodicExperimentConfig(horizon=2000.0)
    every = cfg.steps // cfg.trace_points
    two = run_ergodic_replications(cfg, "pg", "off-policy", 0, 2)
    # the divergence steps and parameters of a driver that stepped every
    # lane to the horizon
    assert [r.divergence_step for r in two] == [7661, 7891]
    assert two[0].final_params["f3"] == pytest.approx(-92.04527674476557, rel=1e-6)
    assert two[1].status == "NA"
    for rec in two:
        steps_run = round(rec.trace["t"][-1] / cfg.dt)
        assert rec.divergence_step < steps_run <= rec.divergence_step + every
    # beside a lane that lives to the horizon the two lanes read the same
    wide = run_ergodic_replications(cfg, "pg", "off-policy", 0, 8)
    assert any(r.status == "ok" for r in wide)
    for a, b in zip(two, wide):
        _same_record(a, b)


# Hot rates over 1,307 steps, recorded every 186 steps: the last of the 7
# records is at step 1,302, five steps before the horizon.  At seed 37, lane 1
# dies at step 1,305, after the last record, so its row count is clamped to
# the 7 records; at seed 8, both lanes die at step 803, between the fourth
# record and the fifth, and the run stops there.
@pytest.mark.parametrize("seed, div", [(37, [None, 1305]), (8, [803, 803])])
def test_dead_lane_traces_end_at_the_next_record_or_the_last(seed, div):
    cfg = dataclasses.replace(HOT, horizon=130.7, trace_points=7)
    every = cfg.steps // cfg.trace_points
    n_rec = cfg.steps // every
    assert (cfg.steps, every, n_rec) == (1307, 186, 7)
    recs = run_ergodic_replications(cfg, "qlearn-online", "on-policy", seed, 2)
    assert [r.divergence_step for r in recs] == div
    for r, rec in enumerate(recs):
        d = rec.divergence_step
        rows = n_rec if d is None else min(n_rec, d // every + 1)
        assert rec.trace["t"].tolist() == [i * every * cfg.dt
                                           for i in range(1, rows + 1)]
        # a row after the divergence holds no reward average
        frozen = d is not None and d // every < n_rec
        assert math.isnan(rec.trace["reward_avg"][-1]) == frozen
        _same_record(run_ergodic(cfg, "qlearn-online", "on-policy",
                                 RngStream(seed, (r, 0))), rec)


@pytest.mark.parametrize("algo", ["qlearn-online", "sarsa"])
def test_offpolicy_reward_average_replays_the_behaviour_data(algo):
    # at zero rates the running reward average of an off-policy run depends
    # on the behaviour data alone; replay them in plain floats, in the
    # driver's order of operations: r dt as one quadratic form and the
    # Euler step as x' = alpha x + beta a.  The driver
    # draws its noise 256 steps at a time, so the run crosses 133 draw
    # boundaries; the replay draws the same streams in two pieces of 32,768
    # and 1,300 steps
    chunk, dt, seed = 32768, 0.1, 9
    steps = chunk + 1300
    b_mean, b_var = 0.3, 0.5
    cfg = ErgodicExperimentConfig(dt=dt, horizon=steps * dt, trace_points=steps,
                                  behavior_mean=b_mean, behavior_var=b_var,
                                  alpha_theta=0.0, alpha_psi=0.0, alpha_v=0.0,
                                  alpha_phi=0.0)
    assert cfg.steps == steps
    rec = run_ergodic(cfg, algo, "off-policy", RngStream(seed, (0, 0)))

    data = RngStream(seed, (0, 0)).generator()
    b_std = math.sqrt(b_var)
    noise = np.concatenate([data.standard_normal((chunk, 2)),
                            data.standard_normal((steps - chunk, 2))])
    # column 0 draws each step's action
    actions = [b_mean + b_std * v for v in noise[:, 0].tolist()]
    co = cfg.coef
    sqdt = math.sqrt(dt)
    kxx, kxa, kx, kaa, ka = (-dt * c for c in (0.5 * co.M, co.R, co.P,
                                                0.5 * co.N, co.Q))
    x, total, want = 0.0, 0.0, []
    for k, (a, z1) in enumerate(zip(actions, noise[:, 1].tolist())):
        total += kxx * (x * x) + x * (kxa * a + kx) + a * (kaa * a + ka)
        want.append(total / ((k + 1) * dt))
        alpha = co.C * sqdt * z1 + (1.0 + co.A * dt)
        beta = co.D * sqdt * z1 + co.B * dt
        x = alpha * x + beta * a
    assert rec.status == "ok"
    assert len(rec.trace["reward_avg"]) == steps
    assert rec.trace["reward_avg"].tolist() == want
    assert rec.metrics["avg_reward"] == total / (steps * dt)


# The driver tests all live lanes' guards at once, and lane by lane when that
# test fails; a lane that dies leaves the working arrays.  So a lane run solo
# and the same lane in a batch can reach their steps through different guard
# paths and beside different lanes.  Hot rates make lanes die at different
# steps; the pinned lanes die at the first or the last step of a 256-step
# block, or, at seed 57, lanes 1 and 15 die in the same step while the rest
# live on.  The all-lanes test of the parameters is their sum of squares,
# and their largest |P| once that sum exceeds PARAM_GUARD^2; the tests
# below this one reach each of those paths.
@pytest.mark.parametrize("mode, seed, lane, div", [
    ("off-policy", 2, 19, 512),
    ("off-policy", 11, 6, 511),
    ("on-policy", 10, 5, 1536),
    ("on-policy", 24, 18, 2047),
    ("off-policy", 57, 15, 369),
])
def test_guard_paths_agree_on_divergence_at_block_edges(mode, seed, lane, div):
    recs = run_ergodic_replications(HOT, "qlearn-online", mode, seed, 20)
    assert recs[lane].divergence_step == div
    together = {r for r, rec in enumerate(recs) if rec.divergence_step == div}
    for r in {0, lane, 19} | together:
        _same_record(run_ergodic(HOT, "qlearn-online", mode,
                                 RngStream(seed, (r, 0))), recs[r])


def test_guard_paths_agree_across_the_parameter_guard():
    # at seed 2 every lane dies when a parameter crosses PARAM_GUARD, each at
    # a step of its own, with its state and residual still finite
    recs = run_ergodic_replications(HOT, "qlearn-online", "on-policy", 2, 8)
    div = [rec.divergence_step for rec in recs]
    assert None not in div and len(set(div)) == 8
    for r, rec in enumerate(recs):
        assert max(abs(v) for v in rec.final_params.values()) > ergodic.PARAM_GUARD
        _same_record(run_ergodic(HOT, "qlearn-online", "on-policy",
                                 RngStream(2, (r, 0))), rec)


@pytest.mark.parametrize("mode", MODES)
def test_guard_paths_agree_for_healthy_lanes_over_the_sum_bound(mode):
    # SARSA at dt 0.01 starts its log-precision at log(1/(gamma dt)), so the
    # squares of 20 healthy lanes' parameters sum to more than PARAM_GUARD^2
    # from the first step: the batch tests them by their largest |P| while
    # each lane alone passes the sum of squares
    cfg = ErgodicExperimentConfig(dt=0.01, horizon=20.0)
    assert 20 * math.log(1.0 / (cfg.gamma * cfg.dt)) ** 2 > ergodic.PARAM_GUARD ** 2
    recs = run_ergodic_replications(cfg, "sarsa", mode, 6, 20)
    assert all(rec.status == "ok" for rec in recs)
    for r in (0, 7, 19):
        _same_record(run_ergodic(cfg, "sarsa", mode, RngStream(6, (r, 0))), recs[r])


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("algo", ALGOS)
def test_guard_paths_agree_on_a_nan_parameter(monkeypatch, algo, mode):
    # a NaN parameter fails the sum of squares, the largest |P| and the
    # per-lane test alike: its lane dies at step 0 with its parameters, and
    # the lanes beside it run on as they do alone
    init_params = ergodic._init_params

    def nan_in(lane):
        def init(cfg, algo, lanes):
            P, rates = init_params(cfg, algo, lanes)
            if lane is not None:
                P[3, lane] = math.nan
            return P, rates
        return init

    monkeypatch.setattr(ergodic, "_init_params", nan_in(2))
    recs = run_ergodic_replications(HOT, algo, mode, 3, 5)
    assert (recs[2].status, recs[2].divergence_step) == ("NA", 0)
    assert math.isnan(recs[2].final_params[ergodic.PARAM_NAMES[algo][3]])
    for r in range(5):
        monkeypatch.setattr(ergodic, "_init_params", nan_in(0 if r == 2 else None))
        _same_record(run_ergodic(HOT, algo, mode, RngStream(3, (r, 0))), recs[r])


@pytest.mark.parametrize("block", [37, 10 ** 6])
def test_block_length_does_not_change_a_record(monkeypatch, block):
    # every term a block computes is elementwise in the step, so a run in
    # 37-step blocks, or in one block longer than the horizon, writes the
    # same bits as one in the default blocks, lanes that die included
    default = {(algo, mode): run_ergodic_replications(HOT, algo, mode, 1, 8)
               for algo in ALGOS for mode in MODES}
    assert all(any(rec.status == "NA" for rec in recs) for recs in default.values())
    monkeypatch.setattr(ergodic, "_BLOCK", block)
    for (algo, mode), recs in default.items():
        for a, b in zip(recs, run_ergodic_replications(HOT, algo, mode, 1, 8)):
            _same_record(a, b)


class _CountingStream:
    """A noise stream that counts its generators and their `standard_normal`
    calls."""

    def __init__(self, stream):
        self.stream, self.opens, self.draws = stream, 0, 0

    def generator(self):
        self.opens += 1
        gen = self.stream.generator()

        def standard_normal(*size, **kw):
            self.draws += 1
            return gen.standard_normal(*size, **kw)

        return types.SimpleNamespace(standard_normal=standard_normal)


@pytest.mark.parametrize("algo, mode", [("qlearn-online", "on-policy"),
                                        ("sarsa", "off-policy")])
def test_driver_stops_drawing_the_streams_of_a_dead_lane(algo, mode):
    # a lane opens one stream and draws each 256-step block's data from it
    # up to the block it dies in, and nothing after
    lanes, seed = 20, 10
    data = [_CountingStream(RngStream(seed, (r, 0))) for r in range(lanes)]
    out = ergodic._drive(HOT, algo, mode, data)
    blocks = -(-HOT.steps // ergodic._BLOCK)
    drawn = np.where(out["div_step"] < 0, blocks,
                     out["div_step"] // ergodic._BLOCK + 1)
    assert drawn.min() < blocks == drawn.max()  # some lanes die, some live
    assert [s.opens for s in data] == [1] * lanes
    assert [s.draws for s in data] == drawn.tolist()


@pytest.mark.parametrize("rate", [0.0, 0.001])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("algo", ALGOS)
def test_guard_paths_agree_just_under_the_state_guard(algo, mode, rate):
    # eight states just under STATE_GUARD square to more than its square in
    # sum, so the batch tests them lane by lane and a solo lane all at once;
    # at zero rates the lanes live, at 0.001 they die at step 1
    cfg = ErgodicExperimentConfig(horizon=5.0, x0=0.999999 * STATE_GUARD,
                                  alpha_theta=rate, alpha_psi=rate,
                                  alpha_v=rate, alpha_phi=rate)
    recs = run_ergodic_replications(cfg, algo, mode, 4, 8)
    assert [r.divergence_step for r in recs] == [1 if rate else None] * 8
    for r in (0, 7):
        _same_record(run_ergodic(cfg, algo, mode, RngStream(4, (r, 0))), recs[r])


@pytest.mark.parametrize("algo, mode", [("qlearn-online", "on-policy"),
                                        ("sarsa", "off-policy"),
                                        ("pg", "off-policy")])
def test_driver_working_memory_does_not_grow_with_the_horizon(algo, mode):
    # tracemalloc counts numpy's buffers and none of pytest's own memory
    def traced_peak(steps):
        cfg = ErgodicExperimentConfig(dt=0.1, horizon=steps * 0.1)
        assert cfg.steps == steps
        tracemalloc.start()
        try:
            run_ergodic_replications(cfg, algo, mode, 0, 50)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak(40_000) <= traced_peak(1_000) + 2 * 2 ** 20


def test_lane_count_does_not_change_a_replication():
    two = run_ergodic_replications(SHORT, "qlearn-online", "on-policy", 17, 2)
    five = run_ergodic_replications(SHORT, "qlearn-online", "on-policy", 17, 5)
    assert two[1].final_params == five[1].final_params
    assert two[1].trace == five[1].trace
    assert two[0].final_params == five[0].final_params


def test_ergodic_runs_are_deterministic():
    a = run_ergodic_replications(SHORT, "sarsa", "on-policy", 5, 2)
    b = run_ergodic_replications(SHORT, "sarsa", "on-policy", 5, 2)
    for ra, rb in zip(a, b):
        assert ra.to_dict() == rb.to_dict()
        assert ra.trace == rb.trace


def test_healthy_short_runs_complete():
    for algo in ("qlearn-online", "sarsa", "pg"):
        recs = run_ergodic_replications(SHORT, algo, "on-policy", 11, 2)
        for rec in recs:
            assert rec.status == "ok"
            assert rec.divergence_step is None
            assert math.isfinite(rec.metrics["avg_reward"])
            assert all(math.isfinite(v) for v in rec.final_params.values())


def test_divergent_replications_are_reported_not_raised():
    cfg = ErgodicExperimentConfig(horizon=2000.0)
    recs = run_ergodic_replications(cfg, "pg", "off-policy", 0, 2)
    for rec in recs:
        assert rec.status == "NA"
        assert isinstance(rec.divergence_step, int)
        assert rec.metrics == {}
        assert all(math.isfinite(v) for v in rec.final_params.values())
        for key, column in rec.trace.items():
            if key == "reward_avg":
                # a dead lane reports no average, never a bogus number
                col = np.asarray(column)
                assert np.all(np.isfinite(col) | np.isnan(col))
                assert np.isnan(col[-1])
            else:
                assert np.all(np.isfinite(column))


def test_ergodic_argument_validation():
    with pytest.raises(ValueError):
        run_ergodic_replications(SHORT, "dqn", "on-policy", 0, 1)
    with pytest.raises(ValueError):
        run_ergodic_replications(SHORT, "sarsa", "offline", 0, 1)
    with pytest.raises(ValueError):
        ErgodicExperimentConfig(dt=-0.1)
    with pytest.raises(ValueError):
        ErgodicExperimentConfig(behavior_var=0.0)


def test_lagrange_update_hand_value():
    assert lagrange_update(1.4, [1.38], 0.005, 1.4) == pytest.approx(1.4001, abs=1e-12)
    assert lagrange_update(1.4, [1.4, 1.4], 0.005, 1.4) == pytest.approx(1.4, abs=1e-15)
    with pytest.raises(ValueError):
        lagrange_update(1.4, [], 0.005, 1.4)


def test_metrics_terminal_fixtures():
    mean, var, sharpe = metrics_terminal([1.2, 1.4], 1.0)
    assert mean == pytest.approx(1.3, abs=1e-15)
    assert var == pytest.approx(0.02, abs=1e-15)
    assert sharpe == pytest.approx(2.1213203435596424, abs=1e-12)
    assert metrics_terminal([1.0, 1.0], 1.0) == (1.0, 0.0, 0.0)
    assert metrics_terminal([2.0, 2.0], 1.0)[2] == math.inf
    assert metrics_terminal([0.5, 0.5], 1.0)[2] == -math.inf
    with pytest.raises(ValueError):
        metrics_terminal([1.0], 1.0)


def test_untrained_policy_holds_initial_wealth_under_mean_readout():
    for algo in MV_ALGOS:
        cfg = small_mv(updates=0, eval_runs=20)
        rec = run_mv_replications(cfg, algo, 0, 1)[0]
        assert rec.status == "ok"
        assert rec.metrics["mean"] == 1.0
        assert rec.metrics["variance"] == 0.0
        assert rec.metrics["sharpe"] == 0.0


def test_exploratory_readout_moves_wealth():
    cfg = small_mv(updates=0, eval_runs=20, eval_exploratory=True)
    rec = run_mv_replications(cfg, "qlearn-td", 0, 1)[0]
    assert rec.metrics["variance"] > 0.0


@pytest.mark.parametrize("lanes, updates, explore", [
    pytest.param(1, 0, True, id="1"),
    pytest.param(3, 0, True, id="3"),
    pytest.param(3, 30, True, id="trained-exploratory"),
    pytest.param(3, 30, False, id="trained-mean")])
def test_mv_evaluation_replays_per_episode_draws(lanes, updates, explore):
    # each lane's episodes are replayed in plain floats from its stream and
    # its final parameters: after the pool draw and each update's segment
    # starts and action normals, one (K, 2) draw per episode.  Untrained
    # lanes act with gain 0 and variance gamma (gamma dt for the step-size
    # policy of sarsa); trained ones also pull the wealth toward w
    cfg = small_mv(updates=updates, eval_runs=6, T=0.2, mu=0.3, sigma=0.2,
                   rfree=0.05, eval_exploratory=explore)
    K, dt, B = cfg.steps, cfg.dt, cfg.batch
    tau = cfg.T - np.arange(K) * dt
    for algo in MV_ALGOS:
        n_act = K + 1 if algo == "sarsa" else K
        for r, rec in enumerate(run_mv_replications(cfg, algo, 5, lanes)):
            assert rec.status == "ok", algo
            p = rec.final_params
            # the gain and variance as `_policy` forms them, with numpy's exp
            if algo == "sarsa":
                gain = p["s2"] * float(np.exp(p["s1"]))
                var = cfg.gamma * dt * np.exp(p["s3"] * tau + p["s1"])
            else:
                c1, gain, c3 = (p[k] for k in mv.MV_PARAM_NAMES[algo][3:6])
                var = cfg.gamma * np.exp(c1 + c3 * tau)
            assert (gain != 0.0) == (updates > 0), algo
            std = [(1.0 if explore else 0.0) * math.sqrt(v) for v in var.tolist()]
            gen = RngStream(5, (r, 0)).generator()
            gen.standard_normal(cfg.pool_size)
            for _ in range(updates):
                gen.integers(0, cfg.pool_size - K + 1, size=B)
                gen.standard_normal((n_act, B))
            wealth = []
            for _ in range(cfg.eval_runs):
                noise = gen.standard_normal((K, 2)).tolist()
                x = cfg.x0
                for s, (z_act, z_mkt) in zip(std, noise):
                    a = (x - p["w"]) * -gain + s * z_act
                    x = x + a * ((cfg.mu - cfg.rfree) * dt
                                 + cfg.sigma * math.sqrt(dt) * z_mkt)
                wealth.append(x)
            mean, variance, _ = metrics_terminal(wealth, cfg.x0)
            assert (rec.metrics["mean"], rec.metrics["variance"]) == (mean, variance), algo


@pytest.mark.parametrize("updates,seed", [(0, 2), (3, 1)])
def test_evaluation_only_divergence_is_reported_after_training(updates, seed):
    # at zero learning rates every lane keeps its start policy; started just
    # under STATE_GUARD, a lane crosses it in training, only in evaluation
    # (reported at updates + 1), or never
    cfg = small_mv(updates=updates, batch=2, eval_runs=10, eval_exploratory=True,
                   alpha_theta=0.0, alpha_psi=0.0, alpha_phi=0.0, alpha_w=0.0)
    for algo in MV_ALGOS:
        # the start policy's standard deviation, sqrt(gamma dt) for sarsa
        std = math.sqrt(cfg.gamma * (cfg.dt if algo == "sarsa" else 1.0))
        lane_cfg = dataclasses.replace(cfg, x0=STATE_GUARD - 0.25 * std)
        recs = run_mv_replications(lane_cfg, algo, seed, 6)
        late = [r for r in recs if r.divergence_step == updates + 1]
        assert late and any(r.status == "ok" for r in recs), algo
        for rec in late:
            assert (rec.status, rec.metrics) == ("NA", {}), algo
        for r, rec in enumerate(recs):
            _same_record(run_mv(lane_cfg, algo, RngStream(seed, (r, 0))), rec)


def test_mean_readout_ignores_an_overflowing_policy_variance():
    # the mean readout never uses the policy's variance, so a lane whose
    # variance gamma e^{p1} overflows reads the same wealths as a lane with
    # the same stream and gain whose variance does not
    cfg = small_mv(updates=0, eval_runs=10)
    P, _ = mv._init_mv_params(cfg, "qlearn-td", 2)
    P[4] = 0.5
    P[3, 1] = 800.0
    gens = [RngStream(0, (0, 0)).generator() for _ in range(2)]
    terminal = mv._evaluate(cfg, "qlearn-td", P, gens, np.ones(2, bool))
    assert np.isfinite(terminal).all()
    assert terminal[1].tobytes() == terminal[0].tobytes()


@pytest.mark.parametrize("reverse", (False, True))
@pytest.mark.parametrize("width", (4, 400))
def test_cumulative_sums_add_in_cumsums_order(width, reverse):
    # small slices take np.cumsum, large ones a loop of slice adds; either
    # gives np.cumsum's bits, so a lane's sums do not depend on the lanes
    a = np.random.default_rng(width).normal(size=(9, width))
    want = np.flip(np.cumsum(np.flip(a, 0), 0), 0) if reverse else np.cumsum(a, 0)
    assert mv._cumulate(a, reverse) is a
    assert a.tobytes() == want.tobytes()


@settings(max_examples=12, deadline=None)
@given(algo=st.sampled_from(MV_ALGOS), lane=_lane_of(3), seed=st.integers(0, 50))
def test_scalar_and_lane_mv_drivers_agree(algo, lane, seed):
    lanes, r = lane
    cfg = small_mv(updates=20)
    recs = run_mv_replications(cfg, algo, seed, lanes)
    solo = run_mv(cfg, algo, RngStream(seed, (r, 0)))
    assert solo.replication == r
    _same_record(solo, recs[r])
    again = run_mv_replications(cfg, algo, seed, lanes)
    assert [x.to_dict() for x in again] == [x.to_dict() for x in recs]


def test_mv_smoke_every_algorithm():
    for algo in MV_ALGOS:
        rec = run_mv_replications(small_mv(updates=50), algo, 3, 1)[0]
        assert rec.status == "ok"
        for key in ("mean", "variance", "sharpe"):
            assert math.isfinite(rec.metrics[key])
        assert "w" in rec.trace and "j" in rec.trace
        assert math.isfinite(rec.final_params["w"])


def test_mv_config_validation():
    with pytest.raises(ValueError):
        small_mv(eval_runs=1)
    with pytest.raises(ValueError):
        small_mv(batch=0)
    with pytest.raises(ValueError):
        small_mv(dt=0.3)
    with pytest.raises(ValueError):
        small_mv(train_years=0.5)
    with pytest.raises(ValueError):
        run_mv_replications(small_mv(), "dqn", 0, 1)


def _hand_records():
    mk = lambda rep, status, a: RunRecord(
        algo="x", mode="m", replication=rep, master_seed=0, status=status,
        divergence_step=None if status == "ok" else 5,
        metrics={} if status != "ok" else {"a": a})
    return [mk(0, "ok", 1.0), mk(1, "NA", 0.0), mk(2, "ok", 3.0)]


def test_aggregate_skips_divergent_runs_and_orders_stably():
    recs = _hand_records()
    agg = aggregate_metrics(recs)
    assert agg["replications"] == 3
    assert agg["completed"] == 2
    assert agg["diverged"] == 1
    assert agg["metric_means"]["a"] == pytest.approx(2.0, abs=1e-15)
    shuffled = [recs[2], recs[0], recs[1]]
    assert aggregate_metrics(shuffled) == agg
    # non-finite metric values stay out of the mean
    recs[0].metrics["a"] = math.inf
    assert aggregate_metrics(recs)["metric_means"]["a"] == pytest.approx(3.0)


def test_summary_output_is_byte_deterministic(tmp_path):
    recs = _hand_records()
    recs[0].trace = {"j": [0, 10], "t": [0.0, 1.0], "b": [0.5, -0.25],
                     "reward_avg": [0.1, 0.2]}
    recs[0].metrics["weird"] = math.nan
    paths = []
    for sub in ("one", "two"):
        paths.append(write_summary(tmp_path / sub, {"dt": 0.1, "algo": "x"}, recs))
    a, b = (open(p, "rb").read() for p in paths)
    assert a == b
    payload = json.loads(a)
    assert [r["replication"] for r in payload["replications"]] == [0, 1, 2]
    assert payload["replications"][0]["metrics"]["weird"] == "nan"
    trace = (tmp_path / "one" / "trace_0.csv").read_text().splitlines()
    assert trace[0] == "j,t,b"
    assert trace[1] == "0,0,0.5"
    rewards = (tmp_path / "one" / "rewards_0.csv").read_text().splitlines()
    assert rewards[0] == "j,t,reward_avg"
    assert (tmp_path / "two" / "trace_0.csv").read_bytes() \
        == (tmp_path / "one" / "trace_0.csv").read_bytes()


def test_ergodic_records_hold_packed_trace_columns():
    # lq-wide's shape: 400 lanes of 200 trace rows in 8 columns.  A list of
    # Python floats holds 32 bytes a value, a packed float64 column 8
    run_ergodic_replications(SHORT, "qlearn-online", "on-policy", 17, 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        recs = run_ergodic_replications(SHORT, "qlearn-online", "on-policy", 17, 400)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    values = sum(len(column) for rec in recs for column in rec.trace.values())
    assert values == 400 * 200 * 8
    assert held <= 12 * values


def test_packed_columns_hold_no_spare_capacity():
    assert sys.getsizeof(packed(np.zeros(200))) == \
        sys.getsizeof(array("d", [0.0]) * 200)


def _assert_packed(trace, blocks):
    assert list(trace) == list(blocks)
    for key, column in trace.items():
        assert type(column) is array and column.typecode == "d", key
        assert column.tobytes() == np.ascontiguousarray(blocks[key]).tobytes(), key


def test_trace_columns_are_the_drivers_trace_blocks_packed():
    # at horizon 2000 the off-policy PG lanes die, and their traces end
    # early in a NaN reward average
    cfg, lanes = ErgodicExperimentConfig(horizon=2000.0), 3
    for algo in ALGOS:
        for mode in MODES:
            out = ergodic._drive(cfg, algo, mode,
                                 [RngStream(0, (r, 0)) for r in range(lanes)])
            if (algo, mode) == ("pg", "off-policy"):
                assert (out["rows"] < len(out["t"])).all()
            for lane in range(lanes):
                n = out["rows"][lane]
                blocks = {"t": out["t"][:n]}
                blocks.update((k, out["trace"][:n, i, lane])
                              for i, k in enumerate(out["names"]))
                blocks["reward_avg"] = out["reward_avg"][:n, lane]
                _assert_packed(ergodic._record(algo, mode, out, lane, lane, 0).trace,
                               blocks)
    cfg = small_mv()
    for algo in MV_ALGOS:
        out = mv._drive_mv(cfg, algo, [RngStream(0, (r, 0)) for r in range(lanes)])
        for lane in range(lanes):
            blocks = {"j": out["j"]}
            blocks.update((k, out["trace"][:, i, lane])
                          for i, k in enumerate(mv.MV_PARAM_NAMES[algo]))
            _assert_packed(mv._record(cfg, algo, out, lane, lane, 0).trace, blocks)


def test_trace_csv_bytes_do_not_depend_on_the_column_type(tmp_path):
    dead = run_ergodic_replications(ErgodicExperimentConfig(horizon=2000.0),
                                    "pg", "off-policy", 0, 1)[0]
    assert dead.status == "NA"
    hand = {"j": packed([0.0, 10.0, 20.0, 30.0, 40.0]),
            "b": packed([-0.0, math.inf, -math.inf, 5e-324, 0.1])}
    traces = [dead.trace, run_mv_replications(small_mv(), "qlearn-ml", 0, 1)[0].trace,
              hand]
    for i, trace in enumerate(traces):
        write_trace_csv(tmp_path / f"array_{i}.csv", trace)
        write_trace_csv(tmp_path / f"list_{i}.csv",
                        {k: column.tolist() for k, column in trace.items()})
        assert (tmp_path / f"array_{i}.csv").read_bytes() \
            == (tmp_path / f"list_{i}.csv").read_bytes()
    assert (tmp_path / "array_2.csv").read_text().splitlines()[1:3] == \
        ["0,-0", "10,inf"]


def test_config_dict_flattens_callables_and_nested_coefficients():
    d = config_dict(MvExperimentConfig())
    assert d["schedule"] == "power_schedule_0.51"
    assert d["updates"] == 20000
    e = config_dict(ErgodicExperimentConfig())
    assert e["coef.A"] == -1.0
    assert e["schedule"] == "sqrt_log_schedule"


def test_cli_oracle_prints_fixed_point(capsys):
    assert main(["oracle"]) == 0
    sol = json.loads(capsys.readouterr().out)
    assert sol["psi"][0] == pytest.approx(-0.35424868893540927, abs=1e-12)
    assert sol["oracle"] is True


@pytest.mark.parametrize("argv, message", [
    (["--gamma", "0"], "gamma must be positive"),
    (["--A", "1"], "no stabilizing solution"),
    (["--gamma", "nan"], "gamma must be positive"),
    (["--gamma", "inf"], "gamma must be positive")])
def test_cli_oracle_rejects_ill_posed_models_with_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["oracle"] + argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"ctql oracle: error: {message}"


def test_cli_check_suite_passes(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "[FAIL]" not in out


@pytest.mark.parametrize("rule", ("q", "entropy", "sarsa", "portfolio", "log_normal"))
def test_gibbs_checks_see_a_moved_kernel_constant(monkeypatch, rule):
    # move one running term's log constant in the driver's kernel, or the
    # portfolio q's, by 0.1: the Gibbs checks evaluate those, and the SARSA
    # check the kernel's "sarsa" rule, so they must fail
    if rule == "log_normal":
        # gamma log pi of both families is written out in the check: moved
        # by gamma 0.1, it misses q, and for the regulator also -gamma H
        log_normal = checks._log_normal
        monkeypatch.setattr(checks, "_log_normal",
                            lambda a, mu, var: log_normal(a, mu, var) + 0.1)
        consistency = check_gibbs_consistency()
        assert not consistency.passed
        assert consistency.detail == ("max |E_pi[q - gamma log pi]| = 1.000e-02, "
                                      "|E_pi[gamma log pi] + gamma H| = 1.000e-02 (tol 1e-8)")
        return
    if rule == "portfolio":
        # q moves by -gamma 0.1 / 2, which the check's own log-density of the
        # portfolio policy does not, and exp(q/gamma) integrates to e^{-0.05}
        monkeypatch.setattr(approx, "LOG_2PI", approx.LOG_2PI + 0.1)
        consistency, normalization = check_gibbs_consistency(), check_gibbs_normalization()
        assert not consistency.passed and not normalization.passed
        assert consistency.detail.startswith("max |E_pi[q - gamma log pi]| = 5.000e-03,")
        assert normalization.detail.startswith("max |int exp(q/gamma) da - 1| = 4.877e-02 ")
        return
    constants = ergodic._constants

    def moved(gamma, dt, running):
        c = constants(gamma, dt, running)
        if running != rule:
            return c
        return c[:5] + (np.array(float(c[5]) + 0.1),) + c[6:]

    monkeypatch.setattr(ergodic, "_constants", moved)
    if rule == "sarsa":
        # the bracket moves by gamma dt 0.1 / 2 = 5e-4
        assert not check_sarsa_bracket().passed
        return
    assert not check_gibbs_consistency().passed
    # exp(q/gamma) still integrates to one unless the q route's constant moved
    assert check_gibbs_normalization().passed == (rule != "q")


def _fresh_python(code, **env_vars):
    """stdout of `code` run in a fresh interpreter that imports this ctql."""
    src = os.path.dirname(os.path.dirname(ctql.__file__))
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_importing_the_package_does_not_load_scipy():
    # a fresh interpreter: this one has loaded scipy through other tests
    code = ("import sys, ctql, ctql.experiments, ctql.experiments.cli, "
            "ctql.experiments.mv_table\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert _fresh_python(code).strip() == "[]"
    # the one check that needs scipy imports it when it runs
    assert check_gibbs_normalization().passed


@pytest.mark.parametrize("algo", MV_ALGOS)
def test_mv_update_faults_few_pages_in(algo):
    # an update writes its full-shape arrays into buffers allocated once per
    # call, so a 200-update call faults in about as many pages as an
    # evaluation-only one.  glibc's mmap threshold is frozen at its 128 KiB
    # default: left adaptive, it decides from the allocation history whether
    # a freed block goes back to the system, and a per-update allocation of
    # a (20, K, batch) array may or may not fault its pages in again.
    code = (
        "import resource\n"
        "from dataclasses import replace\n"
        "from ctql.experiments.mv import MvExperimentConfig, run_mv_replications\n"
        "def faults(updates):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    cfg = replace(MvExperimentConfig(), updates=updates)\n"
        f"    run_mv_replications(cfg, '{algo}', 3, 20)\n"
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
        "evaluation = faults(0)\n"
        "print((faults(200) - evaluation) / 200)\n")
    assert float(_fresh_python(code, MALLOC_MMAP_THRESHOLD_="131072")) <= 20


def test_traced_names_resolve_on_the_mv_driver():
    # perfbench's traced pass rebinds these names on experiments.mv; read
    # them from its source, which is not imported here
    import ctql.experiments.mv as mv

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracing.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    names = [n for node in tree.body if isinstance(node, ast.Assign)
             and getattr(node.targets[0], "id", None) in ("APPROX_NAMES", "BASELINES_NAMES")
             for n in ast.literal_eval(node.value)]
    assert len(names) == 8
    for name in names:
        assert callable(getattr(mv, name)), name


def test_cli_lq_writes_deterministic_summaries(tmp_path, capsys):
    argv = ["lq", "--horizon", "100", "--reps", "2", "--seed", "3"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(d1)]) == 0
    assert main(argv + ["--out", str(d2)]) == 0
    capsys.readouterr()
    s1 = (d1 / "summary.json").read_bytes()
    assert s1 == (d2 / "summary.json").read_bytes()
    payload = json.loads(s1)
    assert payload["aggregate"]["completed"] == 2
    assert payload["config"]["horizon"] == 100
    assert (d1 / "trace_0.csv").exists()
    assert (d1 / "rewards_1.csv").exists()


def test_cli_config_file_overrides_flags(tmp_path, capsys, monkeypatch):
    # values of flags without a type stay the strings argparse would give
    monkeypatch.chdir(tmp_path)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("horizon = 50  # short\nreps=1\nalgo = sarsa\nout = 2024\n")
    assert main(["lq", "--horizon", "900", "--out", "elsewhere",
                 "--config", str(cfgfile)]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "2024" / "summary.json").read_text())
    assert payload["config"]["horizon"] == 50
    assert payload["config"]["algo"] == "sarsa"
    assert len(payload["replications"]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus=1\n")
    with pytest.raises(SystemExit) as exc:
        main(["lq", "--out", str(tmp_path / "out"), "--config", str(bad)])
    assert exc.value.code == 2
    assert (capsys.readouterr().err.splitlines()[-1]
            == f"ctql lq: error: {bad}:1: unknown option 'bogus'")


@pytest.mark.parametrize("text, lineno", [("horizon = 50\nreps = 1e3\n", 2),
                                          ("algo = qlearn\n", 1),
                                          ("horizon = 50\nreps = 0\n", 2),
                                          ("horizon = 50\nseed = -1\n", 2)])
def test_cli_config_file_values_are_checked_like_flags(tmp_path, capsys, text, lineno):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["lq", "--out", str(tmp_path / "out"), "--config", str(cfgfile)])
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(f"ctql lq: error: {cfgfile}:{lineno}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["mv", "--reps", "0"], "argument --reps: invalid positive_int value: '0'"),
    (["lq", "--reps", "-2"], "argument --reps: invalid positive_int value: '-2'"),
    (["lq-off", "--reps", "0"], "argument --reps: invalid positive_int value: '0'"),
    (["lq", "--dt", "0"], "dt, horizon and gamma must be positive"),
    (["mv", "--batch", "0"], "bad updates/batch/multiplier_every"),
    (["lq", "--seed", "-1"], "argument --seed: invalid nonnegative_int value: '-1'"),
    (["lq-off", "--seed", "-3"], "argument --seed: invalid nonnegative_int value: '-3'"),
    (["mv", "--seed", "-1"], "argument --seed: invalid nonnegative_int value: '-1'"),
    (["check", "--seed", "-1"], "argument --seed: invalid nonnegative_int value: '-1'"),
    # non-finite values fail the positivity checks too; the short runs keep
    # a program that lets them through from running long
    (["lq", "--horizon", "inf"], "dt, horizon and gamma must be positive"),
    (["lq", "--gamma", "nan", "--horizon", "1", "--reps", "1"],
     "dt, horizon and gamma must be positive"),
    (["lq-off", "--behavior-var", "nan", "--horizon", "1", "--reps", "1"],
     "behavior variance must be positive"),
    (["lq-off", "--behavior-var", "inf", "--horizon", "1", "--reps", "1"],
     "behavior variance must be positive"),
    (["mv", "--gamma", "inf", "--episodes", "1", "--reps", "1"],
     "sigma and gamma must be positive"),
    (["mv", "--sigma", "nan", "--episodes", "1", "--reps", "1"],
     "sigma and gamma must be positive"),
    (["mv", "--dt", "inf", "--episodes", "1", "--reps", "1"], "T and dt must be positive"),
    (["mv", "--mu", "nan", "--episodes", "1", "--reps", "1"],
     "mu, rfree, x0 and z must be finite"),
    (["mv", "--mu", "inf", "--episodes", "1", "--reps", "1"],
     "mu, rfree, x0 and z must be finite")])
def test_cli_rejects_invalid_values_with_a_usage_error(tmp_path, capsys, argv, message):
    out = [] if argv[0] == "check" else ["--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main(argv + out)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"ctql {argv[0]}: error: {message}"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_configs_reject_nonfinite_levels(value):
    # the market's drift and rate, the start wealth and the target, and the
    # regulator's start state; the behaviour mean may stay infinite, which
    # diverges every off-policy lane at step 0
    for field in ("mu", "rfree", "x0", "z"):
        with pytest.raises(ValueError, match="mu, rfree, x0 and z must be finite"):
            MvExperimentConfig(**{field: value})
    with pytest.raises(ValueError, match="x0 must be finite"):
        ErgodicExperimentConfig(x0=value)
    ErgodicExperimentConfig(behavior_mean=value)


def test_mv_table_rejects_nonpositive_reps(capsys):
    from ctql.experiments import mv_table

    with pytest.raises(SystemExit) as exc:
        mv_table.main(["--reps", "0"])
    assert exc.value.code == 2
    assert "invalid positive_int value: '0'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--dt", "0"], "T and dt must be positive"),
    (["--dt", "0.3"], "T must be a whole number of steps"),
    (["--episodes", "-1"], "bad updates/batch/multiplier_every"),
    (["--seed", "-1"], "argument --seed: invalid nonnegative_int value: '-1'")])
def test_mv_table_rejects_invalid_config_with_a_usage_error(capsys, argv, message):
    from ctql.experiments import mv_table

    with pytest.raises(SystemExit) as exc:
        mv_table.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(f" error: {message}")


def test_cli_mv_smoke(tmp_path, capsys):
    out = tmp_path / "mv"
    assert main(["mv", "--episodes", "30", "--batch", "4", "--eval-runs", "10",
                 "--reps", "1", "--seed", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads((out / "summary.json").read_text())
    assert payload["config"]["algo"] == "qlearn-td"
    assert payload["aggregate"]["completed"] == 1
    assert "sharpe" in payload["aggregate"]["metric_means"]
