"""Parametric value functions, q-functions and Gaussian policies.

Every family is a plain closed-form expression.  Each mean-variance family
is one fused *_eval_grad helper, the single source of its value and
parameter-gradient formulas: it broadcasts over (t, x, a), returns the
value with the gradient rows from one copy of each shared term, and writes
them into an optional `out` tuple of buffers.  The *_eval / *_grad names
and the `mv_q` family object call it.  The ergodic LQ q-family carries its
value only: its parameter gradients are the test vectors of the ergodic
driver's update kernels, which also hold the regulator's quadratic value
theta1 x^2 + theta2 x, as does the oracle.

A q-function here is normalized: integrating exp(q/gamma) over actions gives
one, so gamma * log pi equals q for the induced policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Gaussian policies


@dataclass(frozen=True)
class GaussianPolicy:
    """Scalar state-feedback Gaussian policy with mean(t, x) and variance(t, x)."""

    mean: Callable
    variance: Callable

    def log_density(self, t, x, a):
        return policy_log_density(self, t, x, a)


def _variance(policy: GaussianPolicy, t, x):
    var = np.asarray(policy.variance(t, x), float)
    if np.any(var <= 0):
        raise ValueError("policy variance must be positive")
    return var


def policy_log_density(policy: GaussianPolicy, t, x, a):
    mu = np.asarray(policy.mean(t, x), float)
    var = _variance(policy, t, x)
    return -0.5 * (np.asarray(a, float) - mu) ** 2 / var - 0.5 * np.log(2.0 * np.pi * var)


def policy_entropy(policy: GaussianPolicy, t, x):
    return 0.5 * np.log(2.0 * np.pi * np.e * _variance(policy, t, x))


# ---------------------------------------------------------------------------
# Normalized q-function families


@dataclass(frozen=True)
class GaussianQApprox:
    """Normalized quadratic-in-action q-function q(t, x, a; psi).

    mean/precision_scale give the Gibbs parameters (the induced policy is
    Gaussian with variance gamma / precision_scale); value includes the
    normalizing constant so exp(q/gamma) integrates to one over actions.
    """

    gamma: float
    value: Callable
    mean: Callable
    precision_scale: Callable

    def policy(self) -> GaussianPolicy:
        gamma = self.gamma
        mean = self.mean
        scale = self.precision_scale
        return GaussianPolicy(mean=mean, variance=lambda t, x: gamma / scale(t, x))


# ---------------------------------------------------------------------------
# Mean-variance family (episodic, horizon T, moving target w)

def split_fused(fused):
    """The value and the gradient rows of a fused helper as two callables."""
    return (lambda *args: fused(*args)[0]), (lambda *args: fused(*args)[1])


def mv_value_eval_grad(th1, th2, th3, w, z, T, t, x, out=(None, None)):
    """Wealth value J = (x-w)^2 e^{-theta3 (T-t)} + theta2 (t^2-T^2) +
    theta1 (t-T) - (w-z)^2, pinned at t = T for every theta, and its rows
    (t-T, t^2-T^2, -(T-t) (x-w)^2 e^{-theta3 (T-t)}); out buffers the value
    and the last row; the time-only rows are returned as they broadcast."""
    val, row = out
    e = np.exp(-th3 * (T - t))
    t2 = t ** 2 - T ** 2
    sq = np.subtract(x, w, out=row)
    sq **= 2  # in place; a scalar squares through pow, as x ** 2 does
    v = np.add(np.multiply(sq, e, out=val), th2 * t2, out=val)
    v = np.subtract(np.add(v, th1 * (t - T), out=val), (w - z) ** 2, out=val)
    g = np.multiply(sq, -(T - t), out=row)
    return v, (t - T, t2, np.multiply(g, e, out=row))


mv_value_eval, mv_value_grad = split_fused(mv_value_eval_grad)


def mv_q_eval_grad(p1, p2, p3, w, gamma, T, t, x, a, out=(None,) * 4):
    """q(t, x, a) of `mv_q` and its rows (g1, -prec dev (x-w), (T-t) g1),
    g1 = (prec dev^2 - gamma) / 2, dev = a + psi2 (x-w); out buffers the
    value and the three rows."""
    val, b0, b1, b2 = out
    prec = np.exp(-p1 - p3 * (T - t))
    xw = np.subtract(x, w, out=b1)
    dev = np.add(a, np.multiply(p2, xw, out=b2), out=b2)
    r1 = np.multiply(np.multiply(-prec, dev, out=b0), xw, out=b1)
    dev **= 2
    v = np.subtract(np.multiply(-0.5 * prec, dev, out=val),
                    0.5 * gamma * (LOG_2PI + np.log(gamma) + p1 + p3 * (T - t)), out=val)
    g1 = np.subtract(np.multiply(0.5 * prec, dev, out=b0), 0.5 * gamma, out=b0)
    return v, (g1, r1, np.multiply(T - t, g1, out=b2))


mv_q_eval, mv_q_grad = split_fused(mv_q_eval_grad)


def mv_q(psi, w: float, gamma: float, T: float) -> GaussianQApprox:
    """Quadratic q-family whose Gibbs policy is
    N(-psi2 (x-w), gamma e^{psi1 + psi3 (T-t)})."""
    psi = np.asarray(psi, float)
    if psi.shape != (3,):
        raise ValueError("psi must have three components")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    p1, p2, p3 = psi
    return GaussianQApprox(
        gamma=gamma,
        value=lambda t, x, a: mv_q_eval(p1, p2, p3, w, gamma, T, t, x, a),
        mean=lambda t, x: -p2 * (x - w),
        precision_scale=lambda t, x: np.exp(-p1 - p3 * (T - t)) + 0.0 * np.asarray(x, float),
    )


# ---------------------------------------------------------------------------
# Ergodic linear-quadratic family

def lq_q_eval(p1, p2, p3, gamma, x, a):
    dev = a - p1 * x - p2
    return -0.5 * np.exp(-p3) * dev ** 2 - 0.5 * gamma * (LOG_2PI + np.log(gamma) + p3)


def lq_q(psi, gamma: float) -> GaussianQApprox:
    """Quadratic q-family whose Gibbs policy is N(psi1 x + psi2, gamma e^{psi3})."""
    psi = np.asarray(psi, float)
    if psi.shape != (3,):
        raise ValueError("psi must have three components")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    p1, p2, p3 = psi
    return GaussianQApprox(
        gamma=gamma,
        value=lambda t, x, a: lq_q_eval(p1, p2, p3, gamma, x, a),
        mean=lambda t, x: p1 * np.asarray(x, float) + p2,
        precision_scale=lambda t, x: np.exp(-p3) + 0.0 * np.asarray(x, float),
    )
