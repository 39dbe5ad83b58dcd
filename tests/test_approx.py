"""Parametric families: Gaussian policies, value and q approximators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from ctql.approx import (LOG_2PI, GaussianPolicy, lq_q, lq_q_eval,
                         mv_q, mv_q_eval_grad, mv_value_eval, mv_value_eval_grad,
                         policy_entropy, policy_log_density)

params = st.floats(-2.0, 2.0, allow_nan=False)


def _fd(f, p, i, h=1e-6):
    e = np.zeros_like(p)
    e[i] = h
    return (f(p + e) - f(p - e)) / (2 * h)


def test_lq_q_frozen_values():
    q = lq_q(np.zeros(3), 0.1)
    # at the policy mean only the entropy constant survives
    assert q.value(0.0, 1.0, 0.0) == pytest.approx(0.0232354013292350, abs=1e-15)
    q2 = lq_q(np.array([0.0, 0.0, math.log(10.0)]), 0.1)
    assert q2.value(0.0, 1.0, 0.0) == pytest.approx(-0.0918938533204672, abs=1e-15)
    assert lq_q_eval(0.3, -0.1, 0.2, 0.1, 1.0, 0.5) == pytest.approx(
        -0.5 * math.exp(-0.2) * (0.5 - 0.2) ** 2
        - 0.05 * (LOG_2PI + math.log(0.1) + 0.2), abs=1e-14)


def test_entropy_frozen_value():
    pol = GaussianPolicy(mean=lambda t, x: 0.0, variance=lambda t, x: 0.1)
    assert policy_entropy(pol, 0.0, 0.0) == pytest.approx(0.26764598670764983, abs=1e-15)


def test_q_exponential_integrates_to_one():
    rng = np.random.default_rng(2)
    for _ in range(4):
        psi = rng.uniform(-1.0, 1.0, 3)
        gamma = float(rng.uniform(0.05, 0.5))
        q = lq_q(psi, gamma)
        x = float(rng.uniform(-2, 2))
        val, err = integrate.quad(lambda a: math.exp(q.value(0.0, x, a) / gamma),
                                  -np.inf, np.inf)
        assert val == pytest.approx(1.0, abs=max(1e-9, 10 * err))


@settings(max_examples=30, deadline=None)
@given(params, params, params, params, params)
def test_scaled_policy_log_density_recovers_q(p1, p2, p3, x, a):
    gamma = 0.1
    q = lq_q(np.array([p1, p2, p3]), gamma)
    logp = policy_log_density(q.policy(), 0.0, x, a)
    assert gamma * logp == pytest.approx(q.value(0.0, x, a), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(params, params, params, params, params)
def test_scaled_policy_log_density_recovers_q_wealth_family(p1, p3, w, x, a):
    gamma, T, t = 0.1, 1.0, 0.4
    q = mv_q(np.array([p1, 0.6, p3]), w, gamma, T)
    logp = policy_log_density(q.policy(), t, x, a)
    assert gamma * logp == pytest.approx(q.value(t, x, a), abs=1e-12)


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
    q = mv_q(psi, w, gamma, T)
    for (t, x, a) in [(0.0, 1.1, -0.5), (0.6, 0.8, 0.3)]:
        value, rows = mv_q_eval_grad(*psi, w, gamma, T, t, x, a)
        want = [_fd(lambda p: mv_q_eval_grad(*p, w, gamma, T, t, x, a)[0], psi, i)
                for i in range(3)]
        assert np.allclose(np.asarray(rows, float), want, atol=1e-6)
        # the family object is the same helper
        assert q.value(t, x, a) == value


def test_policy_log_density_matches_reference():
    pol = GaussianPolicy(mean=lambda t, x: 0.3 * x, variance=lambda t, x: 0.25)
    got = policy_log_density(pol, 0.0, 2.0, 1.1)
    assert got == pytest.approx(stats.norm(0.6, 0.5).logpdf(1.1), abs=1e-12)
    assert pol.log_density(0.0, 2.0, 1.1) == got


def test_family_constructors_validate():
    with pytest.raises(ValueError):
        lq_q(np.zeros(4), 0.1)
    with pytest.raises(ValueError):
        lq_q(np.zeros(3), -0.1)
    with pytest.raises(ValueError):
        mv_q(np.zeros(2), 1.3, 0.1, 1.0)
    pol = GaussianPolicy(mean=lambda t, x: 0.0, variance=lambda t, x: -1.0)
    with pytest.raises(ValueError):
        policy_log_density(pol, 0.0, 0.0, 0.0)


# The separate value and gradient expressions the fused helpers replaced,
# kept as the reference for their arithmetic: each fused helper must give
# the same bytes, in the layout the mean-variance driver calls it with.
def _ref_value(th1, th2, th3, w, z, T, t, x):
    return ((x - w) ** 2 * np.exp(-th3 * (T - t))
            + th2 * (t ** 2 - T ** 2) + th1 * (t - T) - (w - z) ** 2)


def _ref_value_grad(th1, th2, th3, w, z, T, t, x):
    e = np.exp(-th3 * (T - t))
    return (t - T, t ** 2 - T ** 2, -(T - t) * (x - w) ** 2 * e)


def _ref_q(p1, p2, p3, w, gamma, T, t, x, a):
    prec = np.exp(-p1 - p3 * (T - t))
    dev = a + p2 * (x - w)
    return -0.5 * prec * dev ** 2 - 0.5 * gamma * (LOG_2PI + np.log(gamma) + p1 + p3 * (T - t))


def _ref_q_grad(p1, p2, p3, w, gamma, T, t, x, a):
    prec = np.exp(-p1 - p3 * (T - t))
    dev = a + p2 * (x - w)
    g1 = 0.5 * prec * dev ** 2 - 0.5 * gamma
    return (g1, -prec * dev * (x - w), (T - t) * g1)


def _ref_qdt(p1, p2, p3, p4, p5, w, z, T, t, x, a):
    e = np.exp(-p3 * (T - t))
    quad = (x - w) ** 2 + p2 * a * (x - w) + 0.5 * np.exp(-p1) * a ** 2
    return -e * quad + p4 * (t ** 2 - T ** 2) + p5 * (t - T) + (w - z) ** 2


def _ref_qdt_grad(p1, p2, p3, p4, p5, w, z, T, t, x, a):
    e = np.exp(-p3 * (T - t))
    quad = (x - w) ** 2 + p2 * a * (x - w) + 0.5 * np.exp(-p1) * a ** 2
    return (0.5 * e * np.exp(-p1) * a ** 2, -e * a * (x - w), (T - t) * e * quad,
            t ** 2 - T ** 2, t - T)


def _ref_pg_logp(f1, f2, f3, w, gamma, T, t, x, a):
    ex = f1 + f3 * (T - np.asarray(t, float))
    dev = np.asarray(a, float) + f2 * (np.asarray(x, float) - w)
    return -0.5 * dev ** 2 * np.exp(-ex) / gamma - 0.5 * (LOG_2PI + np.log(gamma) + ex)


def _ref_pg_score(f1, f2, f3, w, gamma, T, t, x, a):
    t = np.asarray(t, float)
    ex = f1 + f3 * (T - t)
    dev = np.asarray(a, float) + f2 * (np.asarray(x, float) - w)
    g1 = 0.5 * (dev ** 2 * np.exp(-ex) / gamma - 1.0)
    return (g1, -np.exp(-ex) / gamma * dev * (np.asarray(x, float) - w), (T - t) * g1)


def _same_bytes(got, want, shape):
    assert len(got) == len(want)
    for g, r in zip(got, want):
        g = np.broadcast_to(np.asarray(g, float), shape)
        assert g.tobytes() == np.broadcast_to(np.asarray(r, float), shape).tobytes()


@pytest.mark.parametrize("lanes", (1, 3))
def test_fused_helpers_keep_the_reference_arithmetic(lanes):
    from ctql.baselines import pg_mv_logp_score, qdt_mv_eval_grad

    rng = np.random.default_rng(lanes)
    K, B, gamma, T, z, dt = 7, 5, 0.1, 1.0, 1.4, 1.0 / 7
    tcol = (np.arange(K + 1) * dt).reshape(1, K + 1, 1)
    P = rng.normal(scale=0.6, size=(6, lanes, 1, 1))
    w = 1.4 + 0.1 * rng.normal(size=(lanes, 1, 1))
    xs = rng.normal(loc=1.0, scale=0.3, size=(lanes, K + 1, B))
    acts = rng.normal(scale=0.5, size=(lanes, K + 1, B))
    tl, xl, al = tcol[:, :-1], xs[:, :-1], acts[:, :-1]
    full, left = (lanes, K + 1, B), (lanes, K, B)

    # the value family and Q(dt) run on the K + 1 grid points into buffers,
    # and the driver reads their rows at the K left points
    value, rows = mv_value_eval_grad(*P[:3], w, z, T, tcol, xs,
                                     out=tuple(np.empty((2,) + full)))
    _same_bytes([value], [_ref_value(*P[:3], w, z, T, tcol, xs)], full)
    _same_bytes([r[:, :-1] for r in rows], _ref_value_grad(*P[:3], w, z, T, tl, xl), left)
    value, rows = qdt_mv_eval_grad(*P[:5], w, z, T, tcol, xs, acts,
                                   out=tuple(np.empty((4,) + full)))
    _same_bytes([value], [_ref_qdt(*P[:5], w, z, T, tcol, xs, acts)], full)
    _same_bytes([r[:, :-1] for r in rows], _ref_qdt_grad(*P[:5], w, z, T, tl, xl, al), left)
    # the q-function and the log-density run on the left points
    for fused, ref, ref_grad in ((mv_q_eval_grad, _ref_q, _ref_q_grad),
                                 (pg_mv_logp_score, _ref_pg_logp, _ref_pg_score)):
        value, rows = fused(*P[3:6], w, gamma, T, tl, xl, al,
                            out=tuple(np.empty((4,) + left)))
        _same_bytes([value], [ref(*P[3:6], w, gamma, T, tl, xl, al)], left)
        _same_bytes(rows, ref_grad(*P[3:6], w, gamma, T, tl, xl, al), left)
    # without buffers, at scalar points as the property suite calls them
    p = [float(v) for v in P[:, 0, 0, 0]]
    t, x, a = 0.3, float(xs[0, 1, 0]), float(acts[0, 1, 0])
    for fused, ref, ref_grad, n, args in (
            (mv_value_eval_grad, _ref_value, _ref_value_grad, 3, (1.35, z, T, t, x)),
            (qdt_mv_eval_grad, _ref_qdt, _ref_qdt_grad, 5, (1.35, z, T, t, x, a)),
            (mv_q_eval_grad, _ref_q, _ref_q_grad, 3, (1.35, gamma, T, t, x, a)),
            (pg_mv_logp_score, _ref_pg_logp, _ref_pg_score, 3, (1.35, gamma, T, t, x, a))):
        value, rows = fused(*p[:n], *args)
        _same_bytes([value], [ref(*p[:n], *args)], ())
        _same_bytes(rows, ref_grad(*p[:n], *args), ())
