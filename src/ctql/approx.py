"""Parametric value and q-functions of the mean-variance portfolio task.

Every family is a plain closed-form expression.  Each family is one fused
*_eval_grad helper, the single source of its value and parameter-gradient
formulas: it broadcasts over (t, x, a), returns the value with the gradient
rows from one copy of each shared term, and writes them into an optional
`out` tuple of buffers.  The *_eval / *_grad names call it.  The ergodic
regulator's value and q live in the ergodic driver's update kernel.

A q-function here is normalized: integrating exp(q/gamma) over actions gives
one, so gamma * log pi equals q for the induced policy, and the policy-gradient
baseline's log-density and score rows are q and its rows over gamma.
"""

from __future__ import annotations

import math

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


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
    """Normalized q = -(prec/2) dev^2 - (gamma/2)(log 2 pi gamma + psi1 +
    psi3 (T-t)), prec = e^{-psi1 - psi3 (T-t)}, dev = a + psi2 (x-w), whose
    Gibbs policy is N(-psi2 (x-w), gamma / prec), and its rows
    (g1, -prec dev (x-w), (T-t) g1), g1 = (prec dev^2 - gamma) / 2; out
    buffers the value and the three rows."""
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
# log pi of the q family's Gibbs policy and its score rows d log pi / dphi:
# q and its rows over gamma, the fifth argument
pg_mv_logp = lambda *args: mv_q_eval(*args) / args[4]  # noqa: E731
pg_mv_score = lambda *args: tuple(r / args[4] for r in mv_q_grad(*args))  # noqa: E731
