"""Discrete-time SARSA baseline on the mean-variance task: a step-size
Q-function.

The family parameterizes Q directly at a fixed step size dt; its induced
Boltzmann policy has variance proportional to gamma * dt, which is the
step-size sensitivity the rate-based learner avoids.  As in `approx`, it is
one fused helper of its value and gradient rows.  The policy-gradient
baseline's log-density is the q family's q / gamma in `approx`; the ergodic
regulator's versions of both rules are running rules of the lane kernel
`experiments.ergodic.rate_kernel`.
"""

from __future__ import annotations

import numpy as np

from .approx import split_fused


def qdt_mv_eval_grad(p1, p2, p3, p4, p5, w, z, T, t, x, a, out=(None,) * 4):
    """Wealth-targeting Q-function for the terminal-variance problem,
    Q = -e^{-p3 (T-t)} quad + p4 (t^2 - T^2) + p5 (t - T) + (w - z)^2 with
    quad = (x-w)^2 + p2 a (x-w) + e^{-p1} a^2 / 2, whose policy is
    N(-p2 e^{p1} (x - w), gamma dt e^{p3 (T-t) + p1}), and its exact gradient
    rows (one published component carries a stray e^{-p1} factor); out
    buffers the value and the rows in a^2, a (x-w) and quad."""
    val, b0, b1, b2 = out
    e = np.exp(-p3 * (T - t))
    t2 = t ** 2 - T ** 2
    xw = np.subtract(x, w, out=b1)
    r1 = np.multiply(np.multiply(-e, a, out=b0), xw, out=b0)
    v = np.multiply(np.multiply(p2, a, out=val), xw, out=val)
    xw **= 2  # in place; a scalar squares through pow, as x ** 2 does
    quad = np.add(xw, v, out=b1)
    a2 = np.positive(a, out=b2)
    a2 **= 2
    quad = np.add(quad, np.multiply(0.5 * np.exp(-p1), a2, out=val), out=b1)
    v = np.add(np.multiply(-e, quad, out=val), p4 * t2, out=val)
    v = np.add(np.add(v, p5 * (t - T), out=val), (w - z) ** 2, out=val)
    r0 = np.multiply(0.5 * e * np.exp(-p1), a2, out=b2)
    return v, (r0, r1, np.multiply((T - t) * e, quad, out=b1), t2, t - T)


qdt_mv_eval, qdt_mv_grad = split_fused(qdt_mv_eval_grad)
