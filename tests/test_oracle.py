"""Closed-form references for the ergodic linear-quadratic problem."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctql.approx import GaussianPolicy, lq_value
from ctql.envsim import EnvModel, LqCoefficients, RngStream, builtin_lq_env
from ctql.errors import ImprovementUndefined, InfeasibleProblem
from ctql.oracle import (ergodic_identity_residual, hamiltonian,
                         lq_ergodic_fixed_point, lq_policy_value,
                         policy_improvement_map, q_from_value,
                         qdt_expansion_check)

SQ7 = math.sqrt(7.0)


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
    model = builtin_lq_env()
    sol = lq_ergodic_fixed_point()
    J = sol.value()
    pol = sol.policy()
    for x in (-2.0, -0.5, 0.0, 1.0, 3.0):
        assert abs(ergodic_identity_residual(model, J, pol, 0.1, sol.V_star, x)) < 1e-10
    J_bad = lq_value(sol.theta_star + np.array([0.05, 0.0]))
    assert abs(ergodic_identity_residual(model, J_bad, pol, 0.1, sol.V_star, 1.0)) > 1e-3


@settings(max_examples=50, deadline=None)
@given(st.floats(-1.4, 1.4), st.floats(-2.0, 2.0), st.floats(0.01, 3.0),
       st.floats(-3.0, 3.0))
def test_identity_residual_vanishes_for_every_stable_policy(k, m, s2, x):
    # the evaluation identity holds at each policy's own (theta, V), not
    # only at the optimum
    coef = LqCoefficients()
    assume(2.0 * (coef.A + coef.B * k) + (coef.C + coef.D * k) ** 2 < -1e-3)
    theta, V = lq_policy_value(coef, 0.1, k, m, s2)
    pol = GaussianPolicy(mean=lambda t, y: k * np.asarray(y, float) + m,
                         variance=lambda t, y: s2 + 0.0 * np.asarray(y, float))
    resid = ergodic_identity_residual(builtin_lq_env(), lq_value(theta), pol, 0.1, V, x)
    assert abs(resid) < 1e-10


def test_improvement_of_optimal_value_is_the_optimal_policy():
    model = builtin_lq_env()
    sol = lq_ergodic_fixed_point()
    pim = policy_improvement_map(model, sol.value(), 0.1)
    for x in (-1.5, 0.0, 0.4, 2.0):
        assert pim.mean(0.0, x) == pytest.approx(
            sol.psi_star[0] * x + sol.psi_star[1], abs=1e-9)
        assert pim.variance(0.0, x) == pytest.approx(sol.variance, abs=1e-9)


def test_improvement_rejects_flat_or_convex_targets():
    model = builtin_lq_env()
    # curvature 2 x^2 makes the action quadratic term vanish exactly
    with pytest.raises(ImprovementUndefined):
        policy_improvement_map(model, lq_value(np.array([1.0, 0.0])), 0.1).mean(0.0, 1.0)
    with pytest.raises(ImprovementUndefined):
        policy_improvement_map(model, lq_value(np.array([2.0, 0.0])), 0.1).mean(0.0, 1.0)


def test_improvement_rejects_nonquadratic_hamiltonian():
    model = EnvModel(drift=lambda t, x, a: 0.0 * x,
                     diffusion=lambda t, x, a: a ** 2,
                     reward_rate=lambda t, x, a: 0.0 * x)
    with pytest.raises(ImprovementUndefined):
        policy_improvement_map(model, lq_value(np.array([1.0, 0.0])), 0.1).mean(0.0, 1.0)


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


def test_hamiltonian_hand_value():
    model = builtin_lq_env()
    # b p = -2, diffusion term = 1, reward = -6
    assert hamiltonian(model, 0.0, 1.0, 1.0, 2.0, 2.0) == pytest.approx(-7.0, abs=1e-14)


def test_rate_function_conventions():
    model = builtin_lq_env()
    sol = lq_ergodic_fixed_point()
    J = sol.value()
    for x, a in [(0.5, 0.3), (-1.0, 0.0), (2.0, -0.7)]:
        h = hamiltonian(model, 0.0, x, a, J.d_x(0.0, x), J.d_xx(0.0, x))
        assert q_from_value(model, J, sol.V_star, x, a) \
            == pytest.approx(h - sol.V_star, abs=1e-13)


def test_optimal_rate_is_scaled_log_density():
    model = builtin_lq_env()
    sol = lq_ergodic_fixed_point()
    J = sol.value()
    pol = sol.policy()
    for x, a in [(0.0, 0.0), (1.0, -0.5), (-2.0, 1.0)]:
        q = q_from_value(model, J, sol.V_star, x, a)
        assert q == pytest.approx(0.1 * pol.log_density(0.0, x, a), abs=1e-10)


def test_solution_accessors_are_consistent():
    sol = lq_ergodic_fixed_point()
    th1, th2 = sol.theta_star
    assert sol.value().d_x(0.0, 0.0) == th2
    assert sol.value().d_xx(0.0, 0.0) == 2.0 * th1
    d = sol.to_dict()
    assert d["avg_reward"] == pytest.approx(sol.avg_reward(), abs=0.0)
    assert d["psi"] == [float(v) for v in sol.psi_star]
    assert d["oracle"] is True


def test_small_step_expansion_recovers_the_rate():
    model = builtin_lq_env()
    sol = lq_ergodic_fixed_point()
    q_true = q_from_value(model, sol.value(), sol.V_star, 0.5, 0.3)
    slope, intercept = qdt_expansion_check(
        model, sol.value(), 0.0, 0.5, 0.3, (0.05, 0.1), V=sol.V_star,
        n_paths=40_000, substeps=8, rng=RngStream(7))
    assert intercept == pytest.approx(q_true, abs=0.25)
