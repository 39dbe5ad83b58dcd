"""The benchmark's reference formulas, checked against closed forms, the
program's own policy evaluation and a brute-force Monte Carlo."""

import math

import numpy as np
import pytest

import exact


def test_lq_values_at_psi_star_and_initial_policy():
    assert exact.OPTIMAL_VALUE == pytest.approx(0.633374171, abs=1e-9)
    assert exact.INITIAL_VALUE == pytest.approx(-1.358106147, abs=1e-9)


@pytest.mark.parametrize("k,m,s2", [(0.0, 0.0, 1.0), (-0.35, -0.7, 0.04),
                                    (0.5, 1.0, 2.0), (-1.2, 0.3, 0.01)])
def test_lq_value_matches_the_oracle_policy_evaluation(k, m, s2):
    from ctql.envsim import LqCoefficients
    from ctql.oracle import lq_policy_value

    _, v = lq_policy_value(LqCoefficients(), exact.GAMMA, k, m, s2)
    assert exact.lq_policy_value(k, m, s2) == pytest.approx(v, rel=1e-12, abs=1e-12)


def test_unstable_or_degenerate_policies_have_no_value():
    assert exact.lq_policy_value(1.5, 0.0, 1.0) == -math.inf
    assert exact.lq_policy_value(0.0, 0.0, 0.0) == -math.inf


def test_lane_policies_map_each_parametrization():
    p3 = math.log(1.0 / exact.GAMMA)
    assert exact.lq_lane_policy("qlearn-online", {"p1": 1, "p2": 2, "p3": p3}, 0.1) \
        == pytest.approx((1, 2, 1.0))
    s3 = math.log(1.0 / (exact.GAMMA * 0.01))
    assert exact.lq_lane_policy("sarsa", {"s1": 1, "s2": 2, "s3": s3}, 0.01) \
        == pytest.approx((1, 2, 1.0))
    assert exact.mv_gain("sarsa", {"s1": math.log(2.0), "s2": 3.0}) == pytest.approx(6.0)


@pytest.mark.parametrize("phi,excess,sigma", [(-5.0, -0.5, 0.1), (4.0, 0.5, 0.1),
                                              (-3.0, -0.5, 0.2)])
def test_portfolio_moments_match_monte_carlo(phi, excess, sigma):
    x0, w, dt, steps, n = 1.0, 1.4, 0.04, 25, 200_000
    rng = np.random.default_rng(7)
    x = np.full(n, x0)
    for _ in range(steps):
        rho = excess * dt + sigma * math.sqrt(dt) * rng.standard_normal(n)
        x = w + (x - w) * (1.0 - phi * rho)
    mean, var = exact.mv_terminal_moments(phi, x0, w, excess, sigma, dt, steps)
    assert abs(x.mean() - mean) < 4.0 * math.sqrt(var / n)
    assert x.var() == pytest.approx(var, rel=0.02)
