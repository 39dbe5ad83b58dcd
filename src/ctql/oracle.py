"""Independent closed-form and Monte Carlo reference computations.

Everything here is meant to check the learning code from the outside: exact
fixed points by coefficient matching, the Hamiltonian formed from the
regulator's `LqCoefficients` and a quadratic value theta1 x^2 + theta2 x,
quadrature identities, and a brute-force small-step expansion of the
action-value function.  Nothing imports from the learner modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .envsim import LqCoefficients, RngStream
from .errors import ImprovementUndefined, InfeasibleProblem


def _value_derivs(theta, x):
    """J' = 2 theta1 x + theta2 and J'' = 2 theta1 of J = theta1 x^2 + theta2 x."""
    th1, th2 = np.asarray(theta, float)
    return 2.0 * th1 * np.asarray(x, float) + th2, 2.0 * th1


def hamiltonian(coef: LqCoefficients, x, a, p, q_hess) -> float:
    """H = b p + 1/2 sigma^2 q_hess + r with b = A x + B a, sigma = C x + D a
    and r the running reward."""
    # arrays square x ** 2 as x * x; a Python float's pow can round apart
    x = np.asarray(x, float)
    a = np.asarray(a, float)
    sig = coef.C * x + coef.D * a
    return float((coef.A * x + coef.B * a) * p + 0.5 * (sig * sig * q_hess)
                 + coef.reward(x, a))


def q_from_value(coef: LqCoefficients, theta, V: float, x, a) -> float:
    """Ergodic rate function H(x, a, J', J'') - V of the value with parameters
    theta."""
    return hamiltonian(coef, x, a, *_value_derivs(theta, x)) - float(V)


# ---------------------------------------------------------------------------
# Ergodic linear-quadratic fixed point


@dataclass(frozen=True)
class LqErgodicSolution:
    """Closed-form solution of the entropy-regularized ergodic LQ problem.

    psi_star = (mean slope, mean intercept, log(variance/gamma)) for policies
    parameterized as N(psi1 x + psi2, gamma e^{psi3}); V_star includes the
    entropy reward, V_noexplore is the classical optimum without exploration.
    """

    theta_star: np.ndarray
    psi_star: np.ndarray
    V_star: float
    V_noexplore: float
    gamma: float
    variance: float

    def avg_reward(self) -> float:
        """Long-run average of the raw reward under the optimal policy."""
        return self.V_star - self.gamma * 0.5 * math.log(2.0 * math.pi * math.e * self.variance)

    def to_dict(self) -> dict:
        return {
            "oracle": True,
            "theta": [float(v) for v in self.theta_star],
            "psi": [float(v) for v in self.psi_star],
            "V": float(self.V_star),
            "V_noexplore": float(self.V_noexplore),
            "variance": float(self.variance),
            "avg_reward": float(self.avg_reward()),
            "gamma": float(self.gamma),
        }


def _h_coeffs(coef: LqCoefficients, th1: float):
    """Action-quadratic decomposition of H: -(h2/2) a^2 + (h1 x + h0(th2)) a + ..."""
    h2 = coef.N - 2.0 * coef.D ** 2 * th1
    h1 = 2.0 * (coef.B + coef.C * coef.D) * th1 - coef.R
    return h2, h1


def lq_ergodic_fixed_point(coef: LqCoefficients = LqCoefficients(),
                           gamma: float = 0.1) -> LqErgodicSolution:
    """Solve the ergodic fixed point by matching x^2, x and constant terms.

    The x^2 match is a quadratic in theta1.  A root is admissible when the
    Gibbs target is a proper Gaussian (h2 > 0) and the closed loop is mean
    square stable: 2 (A + B k) + (C + D k)^2 < 0 for the mean map k x + m.
    """
    if not 0 < gamma < math.inf:  # NaN fails it
        raise ValueError("gamma must be positive")
    A, B, C, D = coef.A, coef.B, coef.C, coef.D
    M, N, R, P, Q = coef.M, coef.N, coef.R, coef.P, coef.Q
    # [2(B+CD) th - R]^2 + 2 [(2A+C^2) th - M/2] (N - 2 D^2 th) = 0
    ca = 4.0 * (B + C * D) ** 2 - 4.0 * D ** 2 * (2.0 * A + C ** 2)
    cb = -4.0 * R * (B + C * D) + 2.0 * N * (2.0 * A + C ** 2) + 2.0 * M * D ** 2
    cc = R ** 2 - M * N
    if abs(ca) < 1e-14:
        if abs(cb) < 1e-14:
            raise InfeasibleProblem("degenerate coefficient equation")
        roots = [-cc / cb]
    else:
        disc = cb * cb - 4.0 * ca * cc
        if disc < 0:
            raise InfeasibleProblem("no real solution for the value curvature")
        sq = math.sqrt(disc)
        roots = [(-cb - sq) / (2.0 * ca), (-cb + sq) / (2.0 * ca)]

    admissible = []
    for th1 in roots:
        h2, h1 = _h_coeffs(coef, th1)
        if h2 <= 0:
            continue
        k = h1 / h2
        if 2.0 * (A + B * k) + (C + D * k) ** 2 < 0:
            admissible.append(th1)
    if not admissible:
        raise InfeasibleProblem("no stabilizing solution")

    best = None
    for th1 in admissible:
        h2, h1 = _h_coeffs(coef, th1)
        denom = A + h1 * B / h2
        if abs(denom) < 1e-14:
            raise InfeasibleProblem("drift intercept equation is singular")
        th2 = (P + h1 * Q / h2) / denom
        h0 = B * th2 - Q
        V = h0 ** 2 / (2.0 * h2) + 0.5 * gamma * math.log(2.0 * math.pi * gamma / h2)
        if best is None or V > best[-1]:
            best = (th1, th2, h2, h1, h0, V)
    th1, th2, h2, h1, h0, V = best
    variance = gamma / h2
    psi = np.array([h1 / h2, h0 / h2, math.log(1.0 / h2)])
    return LqErgodicSolution(
        theta_star=np.array([th1, th2]),
        psi_star=psi,
        V_star=V,
        V_noexplore=h0 ** 2 / (2.0 * h2),
        gamma=gamma,
        variance=variance,
    )


def lq_policy_value(coef: LqCoefficients, gamma: float, k: float, m: float,
                    s2: float):
    """Exact (theta, V) for a fixed Gaussian policy N(k x + m, s2).

    Solves the ergodic evaluation identity by matching powers of x; needs a
    mean square stable closed loop.  Returns (theta array, V) where V includes
    the entropy reward gamma * entropy.
    """
    if not 0 < gamma < math.inf:  # NaN fails it
        raise ValueError("gamma must be positive")
    if not 0 < s2 < math.inf:
        raise ValueError("policy variance must be positive")
    A, B, C, D = coef.A, coef.B, coef.C, coef.D
    M, N, R, P, Q = coef.M, coef.N, coef.R, coef.P, coef.Q
    abar = A + B * k      # closed-loop drift slope
    bbar = B * m
    cbar = C + D * k      # closed-loop vol slope
    dbar = D * m
    denom = 2.0 * abar + cbar ** 2
    if denom >= 0:
        raise ValueError("closed loop is not mean square stable")
    th1 = (M / 2 + R * k + N / 2 * k ** 2) / denom
    if abs(abar) < 1e-14:
        raise ValueError("drift slope vanished; theta2 undetermined")
    th2 = (R * m + N * k * m + P + Q * k - 2.0 * th1 * (bbar + cbar * dbar)) / abar
    ent = 0.5 * math.log(2.0 * math.pi * math.e * s2)
    V = (bbar * th2 + th1 * (dbar ** 2 + D ** 2 * s2)
         - (N / 2 * (m ** 2 + s2) + Q * m) + gamma * ent)
    return np.array([th1, th2]), V


def ergodic_identity_residual(coef: LqCoefficients, theta, k: float, m: float,
                              s2: float, gamma: float, V: float, x,
                              n_nodes: int = 24) -> float:
    """Residual of the ergodic evaluation identity at state x.

    Integrates [H(x, a, J', J'') - gamma log pi(a|x)] pi(a|x) da - V for the
    value with parameters theta and the policy pi = N(k x + m, s2), with
    Gauss-Hermite quadrature against the policy; exact for action-quadratic
    Hamiltonians.
    """
    mu = k * np.asarray(x, float) + m
    p, q_hess = _value_derivs(theta, x)
    nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
    total = 0.0
    for zi, wi in zip(nodes, weights):
        a = mu + math.sqrt(2.0 * s2) * zi
        h = hamiltonian(coef, x, a, p, q_hess)
        logp = -0.5 * (a - mu) ** 2 / s2 - 0.5 * np.log(2.0 * np.pi * s2)
        total += wi * (h - gamma * float(logp))
    return total / math.sqrt(math.pi) - V


# ---------------------------------------------------------------------------
# One-step policy improvement


def policy_improvement_map(coef: LqCoefficients, theta,
                           gamma: float) -> tuple[float, float, float]:
    """Gibbs policy N(k x + m, s2) of the Hamiltonian built from the value
    with parameters theta, returned as (k, m, s2).

    H is quadratic in the action; the map probes it at three actions, at
    x = 0 and x = 1, and takes the argmax and gamma / curvature.  Raises
    ImprovementUndefined when H is not strictly concave in the action.
    """
    if not 0 < gamma < math.inf:  # NaN fails it
        raise ValueError("gamma must be positive")

    def fit(x):
        p, q_hess = _value_derivs(theta, x)
        h = [hamiltonian(coef, x, av, p, q_hess) for av in (-1.0, 0.0, 1.0)]
        quad = 0.5 * (h[0] + h[2]) - h[1]
        lin = 0.5 * (h[2] - h[0])
        if quad >= 0:
            raise ImprovementUndefined("H is not strictly concave in the action")
        return -lin / (2.0 * quad), quad

    m, quad = fit(0.0)
    return fit(1.0)[0] - m, m, -gamma / (2.0 * quad)


# ---------------------------------------------------------------------------
# Small-step expansion of the action value


def qdt_expansion_check(coef: LqCoefficients, theta, x, a,
                        dt_list: Sequence[float], *, V: float, rng: RngStream,
                        n_paths: int = 100_000, substeps: int = 16):
    """Monte Carlo first-order expansion of the action value in the step size.

    For each window dt the perturbed policy plays the constant action a and
    then reverts, so the window value is E[int (r - V)] plus J at the window
    end, for J = theta1 x^2 + theta2 x.  The function regresses
    (window value - J)/dt on dt and returns (slope, intercept); the intercept
    estimates the rate q(x, a).
    """
    th1, th2 = np.asarray(theta, float)
    gen = rng.generator()
    x0, a0 = float(x), float(a)
    j0 = th1 * x0 ** 2 + th2 * x0
    ys = []
    for dt in dt_list:
        h = dt / substeps
        sq = math.sqrt(h)
        xs = np.full(n_paths, x0)
        acc = np.zeros(n_paths)
        for _ in range(substeps):
            acc += (coef.reward(xs, a0) - V) * h
            sig = coef.C * xs + coef.D * a0
            xs = (xs + (coef.A * xs + coef.B * a0) * h
                  + sig * sq * gen.standard_normal(n_paths))
        q_dt = float(np.mean(acc + (th1 * xs ** 2 + th2 * xs)))
        ys.append((q_dt - j0) / dt)
    slope, intercept = np.polyfit(np.asarray(dt_list, float), np.asarray(ys), 1)
    return float(slope), float(intercept)
