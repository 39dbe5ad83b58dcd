"""Parametric families: the portfolio's value and q helpers and the
mean-variance driver's contraction of their parts, and the regulator's
normalized q and entropy bonus as its q-learning and policy-gradient kernel
evaluates them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from ctql.approx import (LOG_2PI, mv_q_eval_grad, mv_value_eval,
                         mv_value_eval_grad, time_factors)
from ctql.experiments import mv
from ctql.experiments.checks import _kernel_terms
from ctql.experiments.mv import MV_ALGOS, MvExperimentConfig

params = st.floats(-2.0, 2.0, allow_nan=False)


def _fd(f, p, i, h=1e-6):
    e = np.zeros_like(p)
    e[i] = h
    return (f(p + e) - f(p - e)) / (2 * h)


def _q(psi, gamma, x, a):
    """The regulator's q at (x, a), as the q-learning kernel evaluates it."""
    return float(_kernel_terms(psi, gamma, x, a)[0][0])


def test_regulator_q_frozen_values():
    # at the policy mean only the entropy constant survives
    assert _q(np.zeros(3), 0.1, 1.0, 0.0) == pytest.approx(0.0232354013292350, abs=1e-15)
    assert _q(np.array([0.0, 0.0, math.log(10.0)]), 0.1, 1.0, 0.0) == pytest.approx(
        -0.0918938533204672, abs=1e-15)
    assert _q(np.array([0.3, -0.1, 0.2]), 0.1, 1.0, 0.5) == pytest.approx(
        -0.5 * math.exp(-0.2) * (0.5 - 0.2) ** 2
        - 0.05 * (LOG_2PI + math.log(0.1) + 0.2), abs=1e-14)


def test_entropy_frozen_value():
    # the policy-gradient kernel's entropy bonus gamma H of N(0, 0.1)
    bonus = float(_kernel_terms(np.zeros(3), 0.1, 0.0, 0.0)[2][0])
    assert bonus / 0.1 == pytest.approx(0.26764598670764983, abs=1e-15)
    assert bonus / 0.1 == pytest.approx(stats.norm(0.0, math.sqrt(0.1)).entropy(),
                                        abs=1e-15)


def test_q_exponential_integrates_to_one():
    rng = np.random.default_rng(2)
    for _ in range(4):
        psi = rng.uniform(-1.0, 1.0, 3)
        gamma = float(rng.uniform(0.05, 0.5))
        x = float(rng.uniform(-2, 2))
        val, err = integrate.quad(lambda a: math.exp(_q(psi, gamma, x, a) / gamma),
                                  -np.inf, np.inf)
        assert val == pytest.approx(1.0, abs=max(1e-9, 10 * err))


@settings(max_examples=30, deadline=None)
@given(params, params, params, params, params)
def test_scaled_policy_log_density_recovers_q(p1, p2, p3, x, a):
    # gamma log pi of pi = N(p1 x + p2, gamma e^{p3}) is q, and so is gamma
    # log pi as the property suite writes it out
    gamma = 0.1
    psi = np.array([p1, p2, p3])
    logp = stats.norm(p1 * x + p2, math.sqrt(gamma * math.exp(p3))).logpdf(a)
    assert gamma * logp == pytest.approx(_q(psi, gamma, x, a), abs=1e-12)
    assert float(_kernel_terms(psi, gamma, x, a)[1][0]) == pytest.approx(
        gamma * logp, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(params, params, params, params, params)
def test_scaled_policy_log_density_recovers_q_wealth_family(p1, p3, w, x, a):
    # pi = N(-psi2 (x - w), gamma e^{psi1 + psi3 (T-t)})
    gamma, T, t = 0.1, 1.0, 0.4
    q, _rows = mv_q_eval_grad(p1, 0.6, p3, w, gamma, T, t, x, a)
    logp = stats.norm(-0.6 * (x - w),
                      math.sqrt(gamma * math.exp(p1 + p3 * (T - t)))).logpdf(a)
    assert gamma * logp == pytest.approx(q, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(params, params, params, params)
def test_terminal_value_is_pinned_for_all_parameters(t1, t2, t3, x):
    w, z, T = 1.3, 1.4, 1.0
    assert mv_value_eval(t1, t2, t3, w, z, T, T, x) == pytest.approx(
        (x - w) ** 2 - (w - z) ** 2, abs=1e-12)
    # the (lanes, 1, batch) terminal slice qlearn-ml evaluates, with each
    # lane's own parameters and multiplier
    th = np.array([t1, t2, t3]).reshape(3, 1, 1, 1) * np.array([1.0, -0.5]).reshape(2, 1, 1)
    ws = np.array([w, 1.1]).reshape(2, 1, 1)
    xs = x + 0.1 * np.arange(6.0).reshape(2, 1, 3)
    got = mv_value_eval(*th, ws, z, T, T, xs)
    assert got.shape == (2, 1, 3)
    assert np.allclose(got, (xs - ws) ** 2 - (ws - z) ** 2, rtol=0.0, atol=1e-12)


def test_value_frozen_values():
    assert mv_value_eval(0.3, -0.2, 0.7, 1.3, 1.4, 1.0, 0.25, 0.9) == pytest.approx(
        0.047148858298690456, abs=1e-15)


def test_value_gradients_match_finite_differences():
    w, z, T = 1.3, 1.4, 1.0
    theta = np.array([0.4, -0.6, 0.8])
    for (t, x) in [(0.0, 1.1), (0.5, 0.7), (0.99, 1.6)]:
        _value, rows = mv_value_eval_grad(*theta, w, z, T, t, x)
        want = [_fd(lambda p: mv_value_eval_grad(*p, w, z, T, t, x)[0], theta, i)
                for i in range(3)]
        assert np.allclose(np.asarray(rows, float), want, atol=1e-7)


def test_q_gradients_match_finite_differences():
    gamma, w, T = 0.1, 1.3, 1.0
    psi = np.array([0.2, 0.9, -0.4])
    for (t, x, a) in [(0.0, 1.1, -0.5), (0.6, 0.8, 0.3)]:
        _value, rows = mv_q_eval_grad(*psi, w, gamma, T, t, x, a)
        want = [_fd(lambda p: mv_q_eval_grad(*p, w, gamma, T, t, x, a)[0], psi, i)
                for i in range(3)]
        assert np.allclose(np.asarray(rows, float), want, atol=1e-6)


# Each family written out in the order its factors and per-sample terms
# compose, kept as the reference for their arithmetic: each fused helper
# must give the same bytes, at full shape and at scalar points.
def _ref_value(th1, th2, th3, w, z, T, t, x):
    return (np.exp(-th3 * (T - t)) * ((x - w) * (x - w))
            + (th2 * (t ** 2 - T ** 2) + th1 * (t - T) - (w - z) ** 2))


def _ref_value_grad(th1, th2, th3, w, z, T, t, x):
    e = np.exp(-th3 * (T - t))
    return (t - T, t ** 2 - T ** 2, (-(T - t) * e) * ((x - w) * (x - w)))


def _ref_q(p1, p2, p3, w, gamma, T, t, x, a):
    half = 0.5 * np.exp(-p1 - p3 * (T - t))
    dev = a + p2 * (x - w)
    return -half * (dev * dev) - 0.5 * gamma * (LOG_2PI + np.log(gamma) + p1 + p3 * (T - t))


def _ref_q_grad(p1, p2, p3, w, gamma, T, t, x, a):
    half = 0.5 * np.exp(-p1 - p3 * (T - t))
    dev = a + p2 * (x - w)
    return (half * (dev * dev) - 0.5 * gamma, (-2.0 * half) * (dev * (x - w)),
            ((T - t) * half) * (dev * dev) + (T - t) * (-0.5 * gamma))


def _ref_quad(p1, p2, w, x, a):
    return (x - w) * (x - w) + p2 * a * (x - w) + 0.5 * np.exp(-p1) * (a * a)


def _ref_qdt(p1, p2, p3, p4, p5, w, z, T, t, x, a):
    e = np.exp(-p3 * (T - t))
    return (-e * _ref_quad(p1, p2, w, x, a)
            + (p4 * (t ** 2 - T ** 2) + p5 * (t - T) + (w - z) ** 2))


def _ref_qdt_grad(p1, p2, p3, p4, p5, w, z, T, t, x, a):
    e = np.exp(-p3 * (T - t))
    return ((0.5 * np.exp(-p1) * e) * (a * a), -e * (a * (x - w)),
            ((T - t) * e) * _ref_quad(p1, p2, w, x, a), t ** 2 - T ** 2, t - T)


def _same_bytes(got, want, shape):
    assert len(got) == len(want)
    for g, r in zip(got, want):
        g = np.broadcast_to(np.asarray(g, float), shape)
        assert g.tobytes() == np.broadcast_to(np.asarray(r, float), shape).tobytes()


@pytest.mark.parametrize("lanes", (1, 3))
def test_fused_helpers_keep_the_reference_arithmetic(lanes):
    from ctql.baselines import qdt_mv_eval_grad

    rng = np.random.default_rng(lanes)
    K, B, gamma, T, z, dt = 7, 5, 0.1, 1.0, 1.4, 1.0 / 7
    tcol = (np.arange(K + 1) * dt).reshape(1, K + 1, 1)
    P = rng.normal(scale=0.6, size=(6, lanes, 1, 1))
    w = 1.4 + 0.1 * rng.normal(size=(lanes, 1, 1))
    xs = rng.normal(loc=1.0, scale=0.3, size=(lanes, K + 1, B))
    acts = rng.normal(scale=0.5, size=(lanes, K + 1, B))
    tl, xl, al = tcol[:, :-1], xs[:, :-1], acts[:, :-1]
    full, left = (lanes, K + 1, B), (lanes, K, B)

    # the value family and Q(dt) run on the K + 1 grid points, the
    # q-function on the left ones
    value, rows = mv_value_eval_grad(*P[:3], w, z, T, tcol, xs)
    _same_bytes([value], [_ref_value(*P[:3], w, z, T, tcol, xs)], full)
    _same_bytes(rows, _ref_value_grad(*P[:3], w, z, T, tcol, xs), full)
    value, rows = qdt_mv_eval_grad(*P[:5], w, z, T, tcol, xs, acts)
    _same_bytes([value], [_ref_qdt(*P[:5], w, z, T, tcol, xs, acts)], full)
    _same_bytes(rows, _ref_qdt_grad(*P[:5], w, z, T, tcol, xs, acts), full)
    value, rows = mv_q_eval_grad(*P[3:6], w, gamma, T, tl, xl, al)
    _same_bytes([value], [_ref_q(*P[3:6], w, gamma, T, tl, xl, al)], left)
    _same_bytes(rows, _ref_q_grad(*P[3:6], w, gamma, T, tl, xl, al), left)
    # at scalar points, as the property suite calls them
    p = [float(v) for v in P[:, 0, 0, 0]]
    t, x, a = 0.3, float(xs[0, 1, 0]), float(acts[0, 1, 0])
    for fused, ref, ref_grad, n, args in (
            (mv_value_eval_grad, _ref_value, _ref_value_grad, 3, (1.35, z, T, t, x)),
            (qdt_mv_eval_grad, _ref_qdt, _ref_qdt_grad, 5, (1.35, z, T, t, x, a)),
            (mv_q_eval_grad, _ref_q, _ref_q_grad, 3, (1.35, gamma, T, t, x, a))):
        value, rows = fused(*p[:n], *args)
        _same_bytes([value], [ref(*p[:n], *args)], ())
        _same_bytes(rows, ref_grad(*p[:n], *args), ())


def _reference_increments(algo, cfg, P, ys, acts):
    """Each lane's increments from the written-out families at full shape:
    the value and the rows on a lanes-leading grid, the residual, and the
    sum of row times residual over the steps and the batch; also the sum of
    the products' magnitudes, the scale of their roundoff."""
    K, dt, gamma, T, z = cfg.steps, cfg.dt, cfg.gamma, cfg.T, cfg.z
    cols = P[:, :, None, None]
    w = cols[-1]
    t = np.arange(K + 1) * dt
    t[K] = T
    t = t.reshape(1, K + 1, 1)
    x, a = ys.transpose(1, 0, 2) + w, acts.transpose(1, 0, 2)

    def tail_sums(v):
        return np.flip(np.cumsum(np.flip(v, 1), 1), 1)

    if algo == "sarsa":
        Q, rows = (f(*cols[:5], w, z, T, t, x, a) for f in (_ref_qdt, _ref_qdt_grad))
        gain, var = mv._policy(algo, cols, cfg, T - t)
        logp = -0.5 * (a + gain * (x - w)) ** 2 / var - 0.5 * np.log(2.0 * np.pi * var)
        resid = Q[:, 1:] - gamma * dt * logp[:, 1:] - Q[:, :-1]
        rows = [np.broadcast_to(r, x.shape)[:, :-1] for r in rows]
    else:
        J, v_rows = (f(*cols[:3], w, z, T, t, x) for f in (_ref_value, _ref_value_grad))
        q_args = (*cols[3:6], w, gamma, T, t[:, :K], x[:, :K], a[:, :K])
        q, q_rows = _ref_q(*q_args), _ref_q_grad(*q_args)
        rows = [np.broadcast_to(r, x.shape)[:, :-1] for r in v_rows]
        if algo == "qlearn-ml":
            resid = J[:, K:] - J[:, :K] + dt * tail_sums(q)
            rows += [dt * tail_sums(r) for r in q_rows]
        else:
            resid = J[:, 1:] - J[:, :K] + dt * q
            rows += list(q_rows)
    prods = np.stack([r * resid for r in rows])
    scale = 1.0 if algo != "qlearn-ml" else dt
    return scale * prods.sum(axis=(2, 3)), scale * np.abs(prods).sum(axis=(2, 3))


@pytest.mark.parametrize("lanes", (1, 3))
@pytest.mark.parametrize("algo", MV_ALGOS)
def test_factored_increments_match_the_full_shape_contraction(algo, lanes):
    cfg = MvExperimentConfig(dt=1.0 / 7, batch=5)
    K, B = cfg.steps, cfg.batch
    rng = np.random.default_rng(lanes)
    P, _ = mv._init_mv_params(cfg, algo, lanes)
    P[:-1] = rng.normal(scale=0.6, size=(len(P) - 1, lanes))
    P[-1] += 0.1 * rng.normal(size=lanes)
    ys = rng.normal(scale=0.3, size=(K + 1, lanes, B))
    acts = rng.normal(scale=0.5, size=(K + 1, lanes, B))
    # the driver's layout: steps lead, the rows are (1, lanes, 1) columns
    cols = P[:, None, :, None]
    tcol = (np.arange(K + 1) * cfg.dt).reshape(K + 1, 1, 1)
    tcol[K] = cfg.T
    times = time_factors(cfg.T, tcol)
    gain, var = mv._policy(algo, cols, cfg, times[0] if algo == "sarsa" else times[0][:K])
    work = np.empty((6, K + 1, lanes, B))
    got = mv._increments(algo, cfg, cols, times, ys, acts, gain, var, work)
    want, scale = _reference_increments(algo, cfg, P, ys, acts)
    assert got.shape == want.shape == (len(P) - 1, lanes)
    assert np.all(np.abs(got - want) <= 1e-12 * scale), (got, want)
