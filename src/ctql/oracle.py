"""Independent closed-form and Monte Carlo reference computations.

Everything here is meant to check the learning code from the outside: exact
fixed points by coefficient matching, Hamiltonians assembled from model
callables, quadrature identities, and a brute-force small-step expansion of
the action-value function.  Nothing imports from the learner modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .approx import GaussianPolicy, ValueApprox, lq_value
from .envsim import EnvModel, LqCoefficients, RngStream
from .errors import ImprovementUndefined, InfeasibleProblem


def hamiltonian(model: EnvModel, t, x, a, p, q_hess) -> float:
    """H = b p + 1/2 sigma^2 q_hess + r for the given scalar model callables."""
    # arrays square x ** 2 as x * x; a Python float's pow can round apart
    x = np.asarray(x, float)
    a = np.asarray(a, float)
    sig = model.diffusion(t, x, a)
    return float(model.drift(t, x, a) * p + 0.5 * (sig * sig * q_hess)
                 + model.reward_rate(t, x, a))


def q_from_value(model: EnvModel, J: ValueApprox, V: float, x, a) -> float:
    """Ergodic rate function H(x, a, J', J'') - V of the value J."""
    return hamiltonian(model, 0.0, x, a, J.d_x(0.0, x), J.d_xx(0.0, x)) - float(V)


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

    def policy(self) -> GaussianPolicy:
        k, m, _ = self.psi_star
        var = self.variance
        return GaussianPolicy(mean=lambda t, x: k * np.asarray(x, float) + m,
                              variance=lambda t, x: var + 0.0 * np.asarray(x, float))

    def value(self) -> ValueApprox:
        return lq_value(self.theta_star)

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
    if gamma <= 0:
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
    if s2 <= 0:
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


def ergodic_identity_residual(model: EnvModel, J: ValueApprox,
                              policy: GaussianPolicy, gamma: float, V: float,
                              x, n_nodes: int = 24) -> float:
    """Residual of the ergodic evaluation identity at state x.

    Integrates [H(x, a, J', J'') - gamma log pi(a|x)] pi(a|x) da - V with
    Gauss-Hermite quadrature against the policy; exact for action-quadratic
    Hamiltonians.
    """
    mu = float(np.asarray(policy.mean(0.0, x), float))
    s2 = float(np.asarray(policy.variance(0.0, x), float))
    nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
    total = 0.0
    for zi, wi in zip(nodes, weights):
        a = mu + math.sqrt(2.0 * s2) * zi
        h = hamiltonian(model, 0.0, x, a, J.d_x(0.0, x), J.d_xx(0.0, x))
        logp = float(policy.log_density(0.0, x, a))
        total += wi * (h - gamma * logp)
    return total / math.sqrt(math.pi) - V


# ---------------------------------------------------------------------------
# One-step policy improvement


def policy_improvement_map(model: EnvModel, J: ValueApprox, gamma: float) -> GaussianPolicy:
    """Gibbs policy of the Hamiltonian built from J.

    At each (t, x) the map probes H(t, x, ., J', J'') at a few actions, fits
    the quadratic and returns N(argmax, gamma / curvature).  Raises
    ImprovementUndefined when H is not a concave quadratic in the action.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")

    def fit(t, x):
        p = J.d_x(t, x)
        hess = J.d_xx(t, x)
        h = [hamiltonian(model, t, x, av, p, hess) for av in (-1.0, 0.0, 1.0, 2.0)]
        quad = 0.5 * (h[0] + h[2]) - h[1]
        lin = 0.5 * (h[2] - h[0])
        pred2 = h[1] + 2.0 * lin + 4.0 * quad
        scale = max(1.0, max(abs(v) for v in h))
        if abs(pred2 - h[3]) > 1e-8 * scale:
            raise ImprovementUndefined("H is not quadratic in the action")
        if quad >= 0:
            raise ImprovementUndefined("H is not strictly concave in the action")
        return -lin / (2.0 * quad), -gamma / (2.0 * quad)

    return GaussianPolicy(mean=lambda t, x: fit(t, x)[0],
                          variance=lambda t, x: fit(t, x)[1])


# ---------------------------------------------------------------------------
# Small-step expansion of the action value


def qdt_expansion_check(model: EnvModel, J: ValueApprox, t, x, a,
                        dt_list: Sequence[float], *, V: float, rng: RngStream,
                        n_paths: int = 100_000, substeps: int = 16):
    """Monte Carlo first-order expansion of the action value in the step size.

    For each window dt the perturbed policy plays the constant action a and
    then reverts, so the window value is E[int (r - V)] plus J at the window
    end.  The function regresses (window value - J)/dt on dt and returns
    (slope, intercept); the intercept estimates the rate q(x, a).
    """
    gen = rng.generator()
    x0 = float(np.asarray(x, float).reshape(-1)[0])
    a0 = float(np.asarray(a, float).reshape(-1)[0])
    j0 = float(np.asarray(J.value(t, x0), float))
    ys = []
    for dt in dt_list:
        h = dt / substeps
        sq = math.sqrt(h)
        xs = np.full(n_paths, x0)
        acc = np.zeros(n_paths)
        for i in range(substeps):
            ti = t + i * h
            r = np.asarray(model.reward_rate(ti, xs, a0), float) - V
            acc += r * h
            b = np.asarray(model.drift(ti, xs, a0), float)
            sig = np.asarray(model.diffusion(ti, xs, a0), float)
            xs = xs + b * h + sig * sq * gen.standard_normal(n_paths)
        q_dt = float(np.mean(acc + np.asarray(J.value(t + dt, xs), float)))
        ys.append((q_dt - j0) / dt)
    dts = np.asarray(dt_list, float)
    ys = np.asarray(ys)
    slope, intercept = np.polyfit(dts, ys, 1)
    return float(slope), float(intercept)
