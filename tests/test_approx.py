"""Parametric families: Gaussian policies, value and q approximators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from ctql.approx import (LOG_2PI, GaussianPolicy, lq_q, lq_q_eval, lq_value,
                         mv_q, mv_value, policy_entropy, policy_log_density)

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
    assert pol.entropy(0.0, 0.0) == policy_entropy(pol, 0.0, 0.0)


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
    J = mv_value(np.array([t1, t2, t3]), w, z, T)
    assert J.terminal_pinned
    assert J.value(T, x) == pytest.approx((x - w) ** 2 - (w - z) ** 2, abs=1e-12)


def test_value_frozen_values():
    J = mv_value(np.array([0.3, -0.2, 0.7]), w=1.3, z=1.4, T=1.0)
    assert J.value(0.25, 0.9) == pytest.approx(0.047148858298690456, abs=1e-15)
    Jl = lq_value(np.array([0.5, -0.3]))
    assert not Jl.terminal_pinned
    assert Jl.value(0.0, 2.0) == pytest.approx(1.4, abs=1e-15)
    assert Jl.d_x(0.0, 2.0) == pytest.approx(1.7, abs=1e-15)
    assert Jl.d_xx(0.0, 2.0) == pytest.approx(1.0, abs=1e-15)
    assert Jl.d_t(0.0, 2.0) == 0.0


def test_value_gradients_match_finite_differences():
    w, z, T = 1.3, 1.4, 1.0
    theta = np.array([0.4, -0.6, 0.8])
    J = mv_value(theta, w, z, T)
    for (t, x) in [(0.0, 1.1), (0.5, 0.7), (0.99, 1.6)]:
        got = np.asarray(J.grad_theta(t, x), float)
        want = [_fd(lambda p: mv_value(p, w, z, T).value(t, x), theta, i)
                for i in range(3)]
        assert np.allclose(got, want, atol=1e-7)
        # time and space derivatives against the same stencil
        h = 1e-6
        assert J.d_t(t, x) == pytest.approx(
            (J.value(t + h, x) - J.value(t - h, x)) / (2 * h), abs=1e-6)
        assert J.d_x(t, x) == pytest.approx(
            (J.value(t, x + h) - J.value(t, x - h)) / (2 * h), abs=1e-6)
        assert J.d_xx(t, x) == pytest.approx(
            (J.value(t, x + h) - 2 * J.value(t, x) + J.value(t, x - h)) / h ** 2,
            abs=1e-3)


def test_q_gradients_match_finite_differences():
    gamma, w, T = 0.1, 1.3, 1.0
    psi = np.array([0.2, 0.9, -0.4])
    q = mv_q(psi, w, gamma, T)
    for (t, x, a) in [(0.0, 1.1, -0.5), (0.6, 0.8, 0.3)]:
        got = np.asarray(q.grad_psi(t, x, a), float)
        want = [_fd(lambda p: mv_q(p, w, gamma, T).value(t, x, a), psi, i)
                for i in range(3)]
        assert np.allclose(got, want, atol=1e-6)


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
    with pytest.raises(ValueError):
        lq_value(np.zeros(3))
    with pytest.raises(ValueError):
        mv_value(np.zeros(2), 1.3, 1.4, 1.0)
    pol = GaussianPolicy(mean=lambda t, x: 0.0, variance=lambda t, x: -1.0)
    with pytest.raises(ValueError):
        policy_log_density(pol, 0.0, 0.0, 0.0)
