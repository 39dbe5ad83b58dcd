"""Discrete-time baselines on the mean-variance task: SARSA on a step-size
Q-function and policy gradient with a separately learned critic.

The Q-function family parameterizes Q directly at a fixed step size dt; its
induced Boltzmann policy has variance proportional to gamma * dt, which is
the step-size sensitivity the rate-based learner avoids.  The policy gradient
family shares the parameterization of the corresponding q-induced policy so
comparisons run at matched coordinates.  The ergodic regulator's versions of
both rules are the lane kernels of `experiments.ergodic`.
"""

from __future__ import annotations

import math

import numpy as np

from .approx import _stack

LOG_2PI = math.log(2.0 * math.pi)


def qdt_mv_eval(p1, p2, p3, p4, p5, w, z, T, t, x, a):
    """Wealth-targeting Q-function for the terminal-variance problem.

    Q = -e^{-p3 (T-t)} ((x-w)^2 + p2 a (x-w) + e^{-p1} a^2 / 2)
    + p4 (t^2 - T^2) + p5 (t - T) + (w - z)^2, whose policy is
    N(-p2 e^{p1} (x - w), gamma dt e^{p3 (T-t) + p1}).
    """
    e = np.exp(-p3 * (T - t))
    quad = (x - w) ** 2 + p2 * a * (x - w) + 0.5 * np.exp(-p1) * a ** 2
    return -e * quad + p4 * (t ** 2 - T ** 2) + p5 * (t - T) + (w - z) ** 2


def qdt_mv_grad(p1, p2, p3, p4, p5, w, z, T, t, x, a):
    """Exact parameter gradient of qdt_mv_eval (one published gradient
    component differs by a stray e^{-p1} factor from the function it is
    supposed to differentiate; the exact derivative is used here)."""
    e = np.exp(-p3 * (T - t))
    quad = (x - w) ** 2 + p2 * a * (x - w) + 0.5 * np.exp(-p1) * a ** 2
    return _stack(
        0.5 * e * np.exp(-p1) * a ** 2,
        -e * a * (x - w),
        (T - t) * e * quad,
        t ** 2 - T ** 2,
        t - T,
    )


def pg_mv_logp(f1, f2, f3, w, gamma, T, t, x, a):
    """Log-density of the wealth-tracking policy
    N(-f2 (x - w), gamma e^{f1 + f3 (T-t)})."""
    ex = f1 + f3 * (T - np.asarray(t, float))
    dev = np.asarray(a, float) + f2 * (np.asarray(x, float) - w)
    return -0.5 * dev ** 2 * np.exp(-ex) / gamma - 0.5 * (LOG_2PI + np.log(gamma) + ex)


def pg_mv_score(f1, f2, f3, w, gamma, T, t, x, a):
    """Score d log pi / df of pg_mv_logp."""
    t = np.asarray(t, float)
    ex = f1 + f3 * (T - t)
    dev = np.asarray(a, float) + f2 * (np.asarray(x, float) - w)
    g1 = 0.5 * (dev ** 2 * np.exp(-ex) / gamma - 1.0)
    return _stack(g1, -np.exp(-ex) / gamma * dev * (np.asarray(x, float) - w), (T - t) * g1)
