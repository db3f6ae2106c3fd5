"""Fit the rational Mills ratio behind ``markeq.noise.normal_tail``.

The standard normal tail is Phi(-a) = phi(a) * M(a) for a >= 0, with the
Mills ratio M(a) = Phi(-a) / phi(a).  This script fits M, in relative
error, by one rational P(t) / Q(t) of degree 10/10 in t = a / (a + 6)
on a in [0, 40] (t in [0, 20/23]), with Q monic.  It works in mpmath at
50 digits: a Sanathanan-Koerner iteration of linearised least-squares
fits, then Lawson reweighting toward the minimax fit.  It prints the
coefficients, lowest degree first, as they are frozen in
``src/markeq/noise.py``, and the relative error of M with the
coefficients rounded to doubles, evaluated exactly and by Horner's rule
in double precision.

Run it from the repository root (needs mpmath and numpy; about two
minutes):

    python tools/fit_normal_tail.py
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

mp.mp.dps = 50
DEGREE = 10
A_MAX = 40
SHIFT = 6  # t = a / (a + SHIFT)
N_POINTS = 400
SK_STEPS = 8
LAWSON_STEPS = 60


def mills(a):
    """M(a) = Phi(-a) / phi(a) at mpmath precision."""
    a = mp.mpf(a)
    return mp.sqrt(mp.pi / 2) * mp.erfc(a / mp.sqrt(2)) * mp.exp(a * a / 2)


def horner(coef, t):
    acc = mp.mpf(0)
    for c in reversed(coef):
        acc = acc * t + c
    return acc


def fit():
    t_max = mp.mpf(A_MAX) / (A_MAX + SHIFT)
    # Chebyshev points of the second kind on [0, t_max], ends included.
    ts = [t_max * (1 - mp.cos(mp.pi * k / (N_POINTS - 1))) / 2 for k in range(N_POINTS)]
    fs = [mills(SHIFT * t / (1 - t)) for t in ts]
    n = DEGREE
    weights = [mp.mpf(1)] * N_POINTS
    q = [mp.mpf(1)] + [mp.mpf(0)] * n
    best = None

    def solve(q_prev):
        # Minimise sum w_i ((P(t_i) - f_i Q(t_i)) / (f_i Q_prev(t_i)))^2 with Q(0) = 1.
        A = mp.matrix(N_POINTS, 2 * n + 1)
        b = mp.matrix(N_POINTS, 1)
        for i, (t, f) in enumerate(zip(ts, fs)):
            s = mp.sqrt(weights[i]) / (f * horner(q_prev, t))
            for k in range(n + 1):
                A[i, k] = s * t ** k
            for k in range(1, n + 1):
                A[i, n + k] = -s * f * t ** k
            b[i] = s * f
        x, _ = mp.qr_solve(A, b)
        return [x[k] for k in range(n + 1)], [mp.mpf(1)] + [x[n + k] for k in range(1, n + 1)]

    for step in range(SK_STEPS + LAWSON_STEPS):
        p, q = solve(q)
        err = [horner(p, t) / horner(q, t) / f - 1 for t, f in zip(ts, fs)]
        worst = max(abs(e) for e in err)
        if best is None or worst < best[0]:
            best = (worst, p, q)
        if step >= SK_STEPS:  # Lawson: weight up where the error is large
            weights = [w * abs(e) for w, e in zip(weights, err)]
            total = sum(weights)
            weights = [w / total for w in weights]
        print(f"step {step:2d}: max relative error {mp.nstr(worst, 3)}")
    _, p, q = best
    lead = q[-1]
    return [c / lead for c in p], [c / lead for c in q]


def main():
    p, q = fit()
    p64 = [float(c) for c in p]
    q64 = [float(c) for c in q]
    print("NUMERATOR = (")
    for c in p64:
        print(f"    {c!r},")
    print(")")
    print("DENOMINATOR = (  # monic")
    for c in q64[:-1]:
        print(f"    {c!r},")
    print(")")
    # Check on a dense sample of a: the rational with the rounded
    # coefficients, exactly at t(a), and Horner's rule in doubles as
    # markeq.noise.normal_tail runs it, at t rounded from a.
    a = np.concatenate([np.linspace(0.0, 2.0, 2001), np.linspace(2.0, A_MAX, 4001)])
    t = a / (a + SHIFT)
    num = np.full_like(t, p64[-1])
    for c in reversed(p64[:-1]):
        num = num * t + c
    den = t + q64[-2]
    for c in reversed(q64[:-2]):
        den = den * t + c
    rounded_err = horner_err = 0.0
    for ai, mi in zip(a, num / den):
        m = mills(ai)
        ti = mp.mpf(ai) / (mp.mpf(ai) + SHIFT)
        r = horner([mp.mpf(c) for c in p64], ti) / horner([mp.mpf(c) for c in q64], ti)
        rounded_err = max(rounded_err, abs(float(r / m - 1)))
        horner_err = max(horner_err, abs(float(mp.mpf(mi) / m - 1)))
    eps = np.finfo(float).eps
    print(f"max relative error of M: coefficients rounded {rounded_err / eps:.2f} ulps, "
          f"Horner in doubles {horner_err / eps:.2f} ulps")


if __name__ == "__main__":
    main()
