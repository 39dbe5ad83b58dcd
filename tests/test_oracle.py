"""Closed-form references for the ergodic linear-quadratic problem."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from ctql.envsim import LqCoefficients, RngStream
from ctql.errors import ImprovementUndefined, InfeasibleProblem
from ctql.experiments.checks import _kernel_terms
from ctql.oracle import (_h_coeffs, _value_derivs, ergodic_identity_residual,
                         hamiltonian, lq_ergodic_fixed_point, lq_policy_value,
                         policy_improvement_map, q_from_value,
                         qdt_expansion_check)

SQ7 = math.sqrt(7.0)
# B and C nonzero, so that a swapped field shows
HOT_COEF = LqCoefficients(A=-1.3, B=0.7, C=0.4, D=0.9, M=1.5, N=2.5, R=0.6,
                          P=-0.8, Q=1.1)


def test_fixed_point_matches_closed_form_algebra():
    sol = lq_ergodic_fixed_point()
    th1, th2 = sol.theta_star
    # value curvature solves 8 t^2 - 4 t - 3 = 0 on the stabilizing branch
    assert abs(8.0 * th1 ** 2 - 4.0 * th1 - 3.0) < 1e-12
    assert th1 == pytest.approx((1.0 - SQ7) / 4.0, abs=1e-14)
    assert th2 == pytest.approx(5.0 - 2.0 * SQ7, abs=1e-13)
    assert sol.psi_star[0] == pytest.approx(SQ7 - 3.0, abs=1e-13)
    assert sol.psi_star[1] == pytest.approx(2.0 * (SQ7 - 3.0), abs=1e-13)
    assert sol.psi_star[2] == pytest.approx(math.log(2.0 / (3.0 + SQ7)), abs=1e-13)
    assert sol.variance == pytest.approx(0.2 / (3.0 + SQ7), abs=1e-15)
    assert sol.V_noexplore == pytest.approx(6.0 - 2.0 * SQ7, abs=1e-13)


def test_fixed_point_frozen_decimals():
    sol = lq_ergodic_fixed_point()
    assert sol.psi_star[0] == pytest.approx(-0.35424868893540927, abs=1e-13)
    assert sol.psi_star[1] == pytest.approx(-0.70849737787081854, abs=1e-13)
    assert sol.psi_star[2] == pytest.approx(-1.0377561013768144, abs=1e-13)
    assert sol.theta_star[0] == pytest.approx(-0.4114378277661477, abs=1e-13)
    assert sol.theta_star[1] == pytest.approx(-0.2915026221291812, abs=1e-13)
    assert sol.V_star == pytest.approx(0.633374171472743, abs=1e-12)
    assert sol.avg_reward() == pytest.approx(0.6584973778708187, abs=1e-12)
    # entropy bonus and exploration cost cancel up to gamma/2
    assert sol.avg_reward() == pytest.approx(sol.V_noexplore - 0.05, abs=1e-13)


def test_policy_value_of_initial_policy():
    theta, V = lq_policy_value(LqCoefficients(), 0.1, 0.0, 0.0, 1.0)
    assert theta[0] == pytest.approx(-0.5, abs=1e-14)
    assert theta[1] == pytest.approx(-1.0, abs=1e-14)
    assert V == pytest.approx(-1.3581061466795328, abs=1e-13)
    raw = V - 0.1 * 0.5 * math.log(2.0 * math.pi * math.e * 1.0)
    assert raw == pytest.approx(-1.5, abs=1e-13)


def test_policy_value_consistent_with_fixed_point():
    sol = lq_ergodic_fixed_point()
    k, m = sol.psi_star[0], sol.psi_star[1]
    theta, V = lq_policy_value(LqCoefficients(), 0.1, k, m, sol.variance)
    assert np.allclose(theta, sol.theta_star, atol=1e-10)
    assert V == pytest.approx(sol.V_star, abs=1e-10)


def test_identity_residual_vanishes_only_at_solution():
    coef = LqCoefficients()
    sol = lq_ergodic_fixed_point()
    k, m = sol.psi_star[0], sol.psi_star[1]
    for x in (-2.0, -0.5, 0.0, 1.0, 3.0):
        assert abs(ergodic_identity_residual(coef, sol.theta_star, k, m, sol.variance,
                                             0.1, sol.V_star, x)) < 1e-10
    theta_bad = sol.theta_star + np.array([0.05, 0.0])
    assert abs(ergodic_identity_residual(coef, theta_bad, k, m, sol.variance, 0.1,
                                         sol.V_star, 1.0)) > 1e-3


@settings(max_examples=50, deadline=None)
@given(st.floats(-1.4, 1.4), st.floats(-2.0, 2.0), st.floats(0.01, 3.0),
       st.floats(-3.0, 3.0))
def test_identity_residual_vanishes_for_every_stable_policy(k, m, s2, x):
    # the evaluation identity holds at each policy's own (theta, V), not
    # only at the optimum
    coef = LqCoefficients()
    assume(2.0 * (coef.A + coef.B * k) + (coef.C + coef.D * k) ** 2 < -1e-3)
    theta, V = lq_policy_value(coef, 0.1, k, m, s2)
    resid = ergodic_identity_residual(coef, theta, k, m, s2, 0.1, V, x)
    assert abs(resid) < 1e-10


def test_improvement_of_optimal_value_is_the_optimal_policy():
    sol = lq_ergodic_fixed_point()
    k, m, s2 = policy_improvement_map(LqCoefficients(), sol.theta_star, 0.1)
    assert k == pytest.approx(sol.psi_star[0], abs=1e-9)
    assert m == pytest.approx(sol.psi_star[1], abs=1e-9)
    assert s2 == pytest.approx(sol.variance, abs=1e-9)


@pytest.mark.parametrize("coef", [LqCoefficients(), HOT_COEF])
def test_improvement_matches_the_closed_form_away_from_the_optimum(coef):
    # the probed Gibbs policy of H against the action-quadratic decomposition
    # N((h1 x + B theta2 - Q) / h2, gamma / h2) at random values
    rng = np.random.default_rng(12)
    tried = 0
    while tried < 40:
        theta = rng.normal(scale=1.5, size=2)
        gamma = float(rng.uniform(0.02, 1.0))
        h2, h1 = _h_coeffs(coef, theta[0])
        if h2 <= 0.05:
            continue
        tried += 1
        k, m, s2 = policy_improvement_map(coef, theta, gamma)
        assert k == pytest.approx(h1 / h2, abs=1e-9)
        assert m == pytest.approx((coef.B * theta[1] - coef.Q) / h2, abs=1e-9)
        assert s2 == pytest.approx(gamma / h2, abs=1e-9)


def test_improvement_rejects_flat_or_convex_targets():
    coef = LqCoefficients()
    # curvature 2 x^2 makes the action quadratic term vanish exactly
    with pytest.raises(ImprovementUndefined):
        policy_improvement_map(coef, np.array([1.0, 0.0]), 0.1)
    with pytest.raises(ImprovementUndefined):
        policy_improvement_map(coef, np.array([2.0, 0.0]), 0.1)


def test_unstable_dynamics_are_reported_infeasible():
    hot = LqCoefficients(A=1.0)
    with pytest.raises(InfeasibleProblem):
        lq_ergodic_fixed_point(hot)
    with pytest.raises(ValueError):
        lq_policy_value(hot, 0.1, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        lq_ergodic_fixed_point(gamma=0.0)
    with pytest.raises(ValueError):
        lq_policy_value(LqCoefficients(), 0.1, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("bad", (math.nan, math.inf, 0.0))
def test_oracle_maps_reject_gamma_and_variance_outside_the_positive_reals(bad):
    theta = lq_ergodic_fixed_point().theta_star
    with pytest.raises(ValueError, match="gamma must be positive"):
        policy_improvement_map(LqCoefficients(), theta, bad)
    with pytest.raises(ValueError, match="gamma must be positive"):
        lq_policy_value(LqCoefficients(), bad, -0.3, -0.7, 0.1)
    with pytest.raises(ValueError, match="policy variance must be positive"):
        lq_policy_value(LqCoefficients(), 0.1, -0.3, -0.7, bad)


def test_hamiltonian_hand_value():
    # b p = -2, diffusion term = 1, reward = -6
    assert hamiltonian(LqCoefficients(), 1.0, 1.0, 2.0, 2.0) == pytest.approx(-7.0, abs=1e-14)
    # b = -0.6, sigma = 1.3, reward = -(0.75 + 0.6 + 1.25 - 0.8 + 1.1) = -2.9
    assert hamiltonian(HOT_COEF, 1.0, 1.0, 2.0, 2.0) == pytest.approx(
        -1.2 + 1.69 - 2.9, abs=1e-14)


def test_value_derivatives_match_finite_differences():
    theta = np.array([0.4, -0.6])
    h = 1e-6

    def J(x):
        return theta[0] * x * x + theta[1] * x

    assert _value_derivs(np.array([0.5, -0.3]), 2.0) == pytest.approx((1.7, 1.0), abs=1e-15)
    for x in (-1.5, 0.0, 0.7, 1.6):
        d_x, d_xx = _value_derivs(theta, x)
        assert d_x == pytest.approx((J(x + h) - J(x - h)) / (2 * h), abs=1e-6)
        assert d_xx == pytest.approx((J(x + h) - 2 * J(x) + J(x - h)) / h ** 2, abs=1e-3)


def test_rate_function_conventions():
    sol = lq_ergodic_fixed_point()
    for coef in (LqCoefficients(), HOT_COEF):
        for x, a in [(0.5, 0.3), (-1.0, 0.0), (2.0, -0.7)]:
            h = hamiltonian(coef, x, a, *_value_derivs(sol.theta_star, x))
            assert q_from_value(coef, sol.theta_star, sol.V_star, x, a) \
                == pytest.approx(h - sol.V_star, abs=1e-13)


def test_optimal_rate_is_scaled_log_density():
    sol = lq_ergodic_fixed_point()
    p1, p2, p3 = sol.psi_star
    for x, a in [(0.0, 0.0), (1.0, -0.5), (-2.0, 1.0)]:
        q = q_from_value(LqCoefficients(), sol.theta_star, sol.V_star, x, a)
        # pi* = N(psi1 x + psi2, gamma e^{psi3}), and the q-learning kernel's q
        pol = stats.norm(p1 * x + p2, math.sqrt(sol.gamma * math.exp(p3)))
        assert q == pytest.approx(0.1 * pol.logpdf(a), abs=1e-10)
        assert q == pytest.approx(
            float(_kernel_terms(sol.psi_star, sol.gamma, x, a)[0][0]), abs=1e-10)


def test_solution_accessors_are_consistent():
    sol = lq_ergodic_fixed_point()
    d = sol.to_dict()
    assert d["avg_reward"] == pytest.approx(sol.avg_reward(), abs=0.0)
    assert d["psi"] == [float(v) for v in sol.psi_star]
    assert d["theta"] == [float(v) for v in sol.theta_star]
    assert d["variance"] == sol.variance
    assert d["oracle"] is True


def test_small_step_expansion_recovers_the_rate():
    coef = LqCoefficients()
    sol = lq_ergodic_fixed_point()
    q_true = q_from_value(coef, sol.theta_star, sol.V_star, 0.5, 0.3)
    slope, intercept = qdt_expansion_check(
        coef, sol.theta_star, 0.5, 0.3, (0.05, 0.1), V=sol.V_star,
        n_paths=40_000, substeps=8, rng=RngStream(7))
    assert intercept == pytest.approx(q_true, abs=0.25)
