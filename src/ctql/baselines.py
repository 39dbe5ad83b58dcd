"""Discrete-time SARSA baseline on the mean-variance task: a step-size
Q-function.

The family parameterizes Q directly at a fixed step size dt; its induced
Boltzmann policy has variance proportional to gamma * dt, which is the
step-size sensitivity the rate-based learner avoids.  As in `approx`, it is
written once in factored form, per-(lane, step) factors times per-sample
terms, and its fused helper composes the two.  The policy-gradient
baseline's log-density is the q family's q / gamma in `approx`; the ergodic
regulator's versions of both rules are running rules of the lane kernel
`experiments.ergodic.rate_kernel`.
"""

from __future__ import annotations

import numpy as np

from .approx import compose, split_fused, time_factors


def qdt_mv_factors(p1, p3, p4, p5, w, z, times):
    """Wealth-targeting Q-function for the terminal-variance problem,
    Q = -e quad + p4 (t^2 - T^2) + p5 (t - T) + (w - z)^2 with
    e = e^{-p3 (T-t)}, whose policy is N(-p2 e^{p1} (x - w),
    gamma dt e^{p3 (T-t) + p1}), and its exact gradient rows
    (e e^{-p1} a^2 / 2, -e a (x-w), (T-t) e quad, t^2 - T^2, t - T); one
    published component carries a stray e^{-p1} factor; `times` holds the
    time factors of `approx.time_factors`."""
    tau, t_T, t2 = times
    e = np.exp(-p3 * tau)
    return ({"quad": -e, "1": p4 * t2 + p5 * t_T + (w - z) ** 2},
            ({"a2": 0.5 * np.exp(-p1) * e}, {"axw": -e}, {"quad": tau * e},
             {"1": t2}, {"1": t_T}))


def qdt_mv_terms(p1, p2, xw, a, out=(None,) * 3):
    """Q(dt)'s per-sample terms a^2, a (x-w) and
    quad = (x-w)^2 + p2 a (x-w) + e^{-p1} a^2 / 2, from xw = x - w."""
    a2_buf, axw_buf, quad_buf = out
    a2 = np.multiply(a, a, out=a2_buf)
    quad = np.multiply(xw, xw, out=quad_buf)
    # axw's buffer holds quad's other two terms before axw itself
    quad = np.add(quad, np.multiply(np.multiply(p2, a, out=axw_buf), xw, out=axw_buf),
                  out=quad_buf)
    quad = np.add(quad, np.multiply(0.5 * np.exp(-p1), a2, out=axw_buf), out=quad_buf)
    return {"a2": a2, "axw": np.multiply(a, xw, out=axw_buf), "quad": quad}


def qdt_mv_eval_grad(p1, p2, p3, p4, p5, w, z, T, t, x, a):
    """Q(dt)'s Q and its rows."""
    return compose(qdt_mv_factors(p1, p3, p4, p5, w, z, time_factors(T, t)),
                   qdt_mv_terms(p1, p2, np.subtract(x, w), a))


qdt_mv_eval, qdt_mv_grad = split_fused(qdt_mv_eval_grad)
