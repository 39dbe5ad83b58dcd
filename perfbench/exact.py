"""Reference values the benchmark computes without calling ctql.

Regulator: the default coefficients give dX = -X dt + a dW with reward rate
-(X^2 + X a + a^2 + 2 a).  Under the Gaussian policy N(k x + m, s2) the state
is stationary with E[X] = 0 and E[X^2] = (m^2 + s2) / (2 - k^2), so the
exact long-run entropy-regularized reward has the closed form in
`lq_policy_value`.

Portfolio: with the mean readout the evaluation rule is
x_{k+1} - w = (x_k - w)(1 - phi rho_k), rho_k ~ N(excess dt, sigma^2 dt)
independent, so the first two moments of X_K are products of per-step
moments (`mv_terminal_moments`).
"""

from __future__ import annotations

import math

GAMMA = 0.1
PSI_STAR = (math.sqrt(7.0) - 3.0, 2.0 * (math.sqrt(7.0) - 3.0))
# optimal policy variance gamma / h2 with h2 = (3 + sqrt 7) / 2
S2_STAR = GAMMA * (3.0 - math.sqrt(7.0))


def lq_policy_value(k: float, m: float, s2: float, gamma: float = GAMMA) -> float:
    """Exact long-run reward of N(k x + m, s2) on the default regulator.

    -inf when the closed loop is not mean-square stable (k^2 >= 2).
    """
    if not (math.isfinite(k) and math.isfinite(m) and s2 > 0 and math.isfinite(s2)):
        return -math.inf
    if k * k >= 2.0:
        return -math.inf
    ex2 = (m * m + s2) / (2.0 - k * k)
    return (-(ex2 + k * ex2 + k * k * ex2 + m * m + s2 + 2.0 * m)
            + 0.5 * gamma * math.log(2.0 * math.pi * math.e * s2))


INITIAL_VALUE = lq_policy_value(0.0, 0.0, 1.0)
OPTIMAL_VALUE = lq_policy_value(PSI_STAR[0], PSI_STAR[1], S2_STAR)


def lq_lane_policy(algo: str, params: dict, dt: float, gamma: float = GAMMA):
    """(k, m, s2) of the Gaussian policy a regulator lane's parameters define."""
    if algo == "qlearn-online":
        return params["p1"], params["p2"], gamma * math.exp(params["p3"])
    if algo == "sarsa":
        return params["s1"], params["s2"], gamma * dt * math.exp(params["s3"])
    if algo == "pg":
        return params["f1"], params["f2"], gamma * math.exp(params["f3"])
    raise ValueError(f"unknown algo {algo!r}")


def psi_distance(k: float, m: float) -> float:
    return math.hypot(k - PSI_STAR[0], m - PSI_STAR[1])


def mv_gain(algo: str, params: dict) -> float:
    """phi in a = -phi (x - w), the mean readout of a portfolio lane."""
    if algo in ("qlearn-td", "qlearn-ml"):
        return params["p2"]
    if algo == "sarsa":
        return params["s2"] * math.exp(params["s1"])
    if algo == "pg":
        return params["f2"]
    raise ValueError(f"unknown algo {algo!r}")


def mv_terminal_moments(phi: float, x0: float, w: float, excess: float,
                        sigma: float, dt: float, steps: int):
    """(E[X_K], Var[X_K]) of the mean-readout wealth recursion."""
    c = 1.0 - phi * excess * dt
    mean = w + (x0 - w) * c ** steps
    second = (x0 - w) ** 2 * (c * c + phi * phi * sigma * sigma * dt) ** steps
    return mean, second - (mean - w) ** 2
