"""Gegenbauer (ultraspherical) polynomial evaluation and weighted L2 norms.

The three-term recurrence is run in the increasing-degree direction, which is
the numerically stable direction for the weight (1-t^2)^(lambda-1/2).  Values
at the right endpoint and the norms go through log-gamma so that degrees up to
1e6 and lambda up to ~130 do not overflow intermediate gamma factors.
"""

from itertools import islice

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


def _recurrence(lam: float, r: np.ndarray, weight=1.0, active=None):
    """Yield weight * G_k^lam(r) for k = 0, 1, 2, ...: the package's one
    three-term recurrence; the caller decides where to stop.

    weight is a scalar, or for 2-D r a column of per-row scales.  It rides
    in the seeds: the recurrence is linear, so this is exact up to rounding,
    and intermediates stay within |weight| * G_k(1), which keeps huge-degree
    low-coefficient waves inside double range where the plain product would
    overflow.  active, when given, maps a degree k >= 2 to the number of
    leading rows of r still needed from k on (non-increasing in k), at the
    degrees where that number drops; the yielded arrays hold only those
    rows.  Each yielded array is a working buffer that the step two degrees
    later overwrites.
    """
    g0 = np.full_like(r, weight)
    yield g0
    g1 = (2.0 * lam * weight) * r
    yield g1
    x, g, h, w = r, g1, g0, np.empty_like(r)
    k = 2
    while True:
        if active is not None and k in active:
            rows = active[k]
            x, g, h, w = x[:rows], g[:rows], h[:rows], w[:rows]
        np.multiply(x, g, out=w)
        w *= 2.0 * (k + lam - 1.0) / k
        h *= (k + 2.0 * lam - 2.0) / k
        np.subtract(w, h, out=h)
        g, h = h, g
        yield g
        k += 1


def gegenbauer_eval(lam: float, n: int, r):
    """Evaluate the degree-n Gegenbauer polynomial with parameter lam at r.

    r may be a scalar or an array in [-1, 1]; lam must be positive (the
    lam = 0 limit used on the circle is handled by cosine formulas in the
    simulator, never here).
    """
    return gegenbauer_eval_weighted(lam, n, r, 1.0)


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
    for k, g in enumerate(islice(_recurrence(lam, r), max_degree + 1)):
        out[k] = g
    return out[:, 0] if scalar else out


def gegenbauer_eval_weighted(lam: float, n: int, r, weight):
    """weight * G_n^lam(r) with the weight folded into the recurrence seeds
    (see _recurrence: exact up to rounding, and free of the overflow of the
    plain product)."""
    r = _check_args(lam, r)
    if n < 0:
        raise ValueError("degree must be nonnegative")
    scalar = r.ndim == 0
    for out in islice(_recurrence(lam, np.atleast_1d(r), weight), n + 1):
        pass
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
