"""Parametric value and q-functions of the mean-variance portfolio task.

Every family is a plain closed-form expression, written once in factored
form: a sum of per-(lane, step) factors, functions of the parameters and the
time, times per-sample terms, functions of the wealth and the action.  A
family's *_factors function gives its value and each gradient row as a
{term: factor} dict, "1" naming the constant term, from the parameters and
the time-only factors of `time_factors`, and its *_terms function the
per-sample terms, optionally into `out` buffers.  The fused *_eval_grad
helper composes the two into the value and the gradient rows; the
mean-variance driver contracts the parts without forming the rows.  The
*_eval / *_grad names call the fused helper.  The ergodic regulator's value
and q live in the ergodic driver's update kernel.

A q-function here is normalized: integrating exp(q/gamma) over actions gives
one, so gamma * log pi equals q for the induced policy, and the policy-gradient
baseline's log-density and score rows are q and its rows over gamma.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Mean-variance family (episodic, horizon T, moving target w)

def compose(parts, terms):
    """A family's value and gradient rows from its (value, rows) factors
    and its per-sample terms: each the sum of factor * term over a
    {term: factor} dict, in its order, the "1" term the factor alone."""
    def total(factors):
        return reduce(np.add, (f if h == "1" else f * terms[h] for h, f in factors.items()))

    value, rows = parts
    return total(value), tuple(total(r) for r in rows)


def split_fused(fused):
    """The value and the gradient rows of a fused helper as two callables."""
    return (lambda *args: fused(*args)[0]), (lambda *args: fused(*args)[1])


def time_factors(T, t):
    """The families' time-only factors at the times t: T-t, t-T and
    t^2-T^2.  A caller that evaluates a family at the same times again and
    again forms them once."""
    return T - t, t - T, t ** 2 - T ** 2


def mv_value_factors(th1, th2, th3, w, z, times):
    """Wealth value J = e (x-w)^2 + c with e = e^{-theta3 (T-t)} and
    c = theta2 (t^2-T^2) + theta1 (t-T) - (w-z)^2, pinned at t = T for every
    theta, and its rows (t-T, t^2-T^2, -(T-t) e (x-w)^2); `times` holds the
    time factors of `time_factors`."""
    tau, t_T, t2 = times
    e = np.exp(-th3 * tau)
    return ({"sq": e, "1": th2 * t2 + th1 * t_T - (w - z) ** 2},
            ({"1": t_T}, {"1": t2}, {"sq": -tau * e}))


def mv_value_terms(xw, out=None):
    """The value family's per-sample term (x-w)^2, from xw = x - w."""
    return {"sq": np.multiply(xw, xw, out=out)}


def mv_value_eval_grad(th1, th2, th3, w, z, T, t, x):
    """The value family's J and its rows; the time-only rows are returned as
    they broadcast."""
    return compose(mv_value_factors(th1, th2, th3, w, z, time_factors(T, t)),
                   mv_value_terms(np.subtract(x, w)))


mv_value_eval, mv_value_grad = split_fused(mv_value_eval_grad)


def mv_q_factors(p1, p3, gamma, tau):
    """Normalized q = -(prec/2) dev^2 - (gamma/2)(log 2 pi gamma + psi1 +
    psi3 (T-t)), prec = e^{-psi1 - psi3 (T-t)}, dev = a + psi2 (x-w), whose
    Gibbs policy is N(-psi2 (x-w), gamma / prec), and its rows
    (g1, -prec dev (x-w), (T-t) g1), g1 = (prec dev^2 - gamma) / 2, with
    tau = T - t."""
    half = 0.5 * np.exp(-p1 - p3 * tau)
    log_c = 0.5 * gamma * (LOG_2PI + np.log(gamma) + p1 + p3 * tau)
    g1 = {"dev2": half, "1": -0.5 * gamma}
    return ({"dev2": -half, "1": -log_c},
            (g1, {"dxw": -2.0 * half}, {h: tau * f for h, f in g1.items()}))


def mv_q_terms(p2, xw, a, out=(None, None)):
    """The q family's per-sample terms dev^2 and dev (x-w), from xw = x - w;
    the deviation dev = a + psi2 (x-w) from the policy mean is squared as it
    is, never expanded in a and x - w."""
    buf, dxw = out
    dev = np.add(a, np.multiply(p2, xw, out=buf), out=buf)
    dxw = np.multiply(dev, xw, out=dxw)
    return {"dev2": np.multiply(dev, dev, out=buf), "dxw": dxw}


def mv_q_eval_grad(p1, p2, p3, w, gamma, T, t, x, a):
    """The q family's q and its rows."""
    return compose(mv_q_factors(p1, p3, gamma, T - t), mv_q_terms(p2, np.subtract(x, w), a))


mv_q_eval, mv_q_grad = split_fused(mv_q_eval_grad)
# log pi of the q family's Gibbs policy and its score rows d log pi / dphi:
# q and its rows over gamma, the fifth argument
pg_mv_logp = lambda *args: mv_q_eval(*args) / args[4]  # noqa: E731
pg_mv_score = lambda *args: tuple(r / args[4] for r in mv_q_grad(*args))  # noqa: E731
