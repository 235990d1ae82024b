"""Gegenbauer (ultraspherical) polynomial evaluation and weighted L2 norms.

The three-term recurrence is run in the increasing-degree direction, which is
the numerically stable direction for the weight (1-t^2)^(lambda-1/2).  Values
at the right endpoint and the norms go through log-gamma so that degrees up to
1e6 and lambda up to ~130 do not overflow intermediate gamma factors.
"""

import numpy as np
from scipy.special import gammaln

__all__ = [
    "gegenbauer_eval",
    "gegenbauer_eval_table",
    "gegenbauer_eval_weighted",
    "gegenbauer_at_one",
    "gegenbauer_log_at_one",
    "gegenbauer_norm_sq",
]


def _check_args(lam: float, r) -> np.ndarray:
    if not lam > 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    r = np.asarray(r, dtype=float)
    if np.any(np.abs(r) > 1.0):
        raise ValueError("argument must lie in [-1, 1]")
    return r


def gegenbauer_eval(lam: float, n: int, r):
    """Evaluate the degree-n Gegenbauer polynomial with parameter lam at r.

    r may be a scalar or an array in [-1, 1]; lam must be positive (the
    lam = 0 limit used on the circle is handled by cosine formulas in the
    simulator, never here).
    """
    r = _check_args(lam, r)
    if n < 0:
        raise ValueError("degree must be nonnegative")
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    if n == 0:
        out = np.ones_like(r)
    elif n == 1:
        out = 2.0 * lam * r
    else:
        g0 = np.ones_like(r)
        g1 = 2.0 * lam * r
        tmp = np.empty_like(r)
        for k in range(2, n + 1):
            a = 2.0 * (k + lam - 1.0) / k
            b = (k + 2.0 * lam - 2.0) / k
            np.multiply(r, g1, out=tmp)
            tmp *= a
            g0 *= b
            np.subtract(tmp, g0, out=g0)
            g0, g1 = g1, g0
        out = g1
    return float(out[0]) if scalar else out


def gegenbauer_eval_table(lam: float, max_degree: int, r):
    """All Gegenbauer values of degree 0..max_degree at r, one recurrence pass.

    Element k equals gegenbauer_eval(lam, k, r) exactly: the same recurrence
    steps are applied in the same order, so the rounding agrees bit for bit.
    """
    r = _check_args(lam, r)
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    out = np.empty((max_degree + 1, r.size))
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = 2.0 * lam * r
    tmp = np.empty_like(r)
    for k in range(2, max_degree + 1):
        a = 2.0 * (k + lam - 1.0) / k
        b = (k + 2.0 * lam - 2.0) / k
        np.multiply(r, out[k - 1], out=tmp)
        tmp *= a
        g0 = out[k - 2] * b
        np.subtract(tmp, g0, out=out[k])
    return out[:, 0] if scalar else out


def _weighted_pair(lam: float, n: int, r: np.ndarray, weight):
    """(weight * G_{n-1}^lam(r), weight * G_n^lam(r)) by the weight-folded
    recurrence, with G_{-1} = 0.  r must be a checked 1-D array."""
    if n == 0:
        return np.zeros_like(r), np.full_like(r, weight)
    g0 = np.full_like(r, weight)
    g1 = (2.0 * lam * weight) * r
    tmp = np.empty_like(r)
    for k in range(2, n + 1):
        a = 2.0 * (k + lam - 1.0) / k
        b = (k + 2.0 * lam - 2.0) / k
        np.multiply(r, g1, out=tmp)
        tmp *= a
        g0 *= b
        np.subtract(tmp, g0, out=g0)
        g0, g1 = g1, g0
    return g0, g1


def gegenbauer_eval_weighted(lam: float, n: int, r, weight):
    """weight * G_n^lam(r) with the weight folded into the recurrence seeds.

    The recurrence is linear, so seeding with the weight is exact up to
    rounding; intermediates then stay within |weight| * G_m(1) <= the final
    wave amplitude, which keeps huge-degree low-coefficient waves inside
    double range where the plain product would overflow.
    """
    r = _check_args(lam, r)
    if n < 0:
        raise ValueError("degree must be nonnegative")
    scalar = r.ndim == 0
    out = _weighted_pair(lam, n, np.atleast_1d(r), weight)[1]
    return float(out[0]) if scalar else out


def gegenbauer_log_at_one(lam: float, n):
    """log of the value at r=1, i.e. log Gamma(n+2*lam) - log Gamma(2*lam) - log n!.

    Vectorized over n.  Stays finite far beyond the double-precision range of
    the value itself, which is what the tail bounds on high-dimensional
    spheres need.
    """
    if not lam > 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    n = np.asarray(n, dtype=float)
    return gammaln(n + 2.0 * lam) - gammaln(2.0 * lam) - gammaln(n + 1.0)


def gegenbauer_at_one(lam: float, n):
    """Value at the right endpoint r=1; always positive."""
    return np.exp(gegenbauer_log_at_one(lam, n))


def gegenbauer_norm_sq(d: int, n: int) -> float:
    """Squared weighted L2 norm of the degree-n polynomial on the d-sphere.

    For d >= 2 this is the integral of G_n^((d-1)/2)(cos t)^2 sin(t)^(d-1)
    over [0, pi].  For d = 1 the value 2*pi/n^2 is the norm of the
    lambda -> 0 limit polynomial and is undefined at n = 0; that case is
    rejected here and handled by the circle branch of the simulator.
    """
    if d < 1:
        raise ValueError("sphere dimension must be >= 1")
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if d == 1:
        if n == 0:
            raise ValueError("norm formula on the circle is undefined at degree 0")
        return 2.0 * np.pi / n**2
    lam = 0.5 * (d - 1)
    log_norm = (
        (3.0 - d) * np.log(2.0)
        + np.log(np.pi)
        - np.log(2.0 * n + d - 1.0)
        + gammaln(d - 1.0 + n)
        - gammaln(n + 1.0)
        - 2.0 * gammaln(lam)
    )
    return float(np.exp(log_norm))
