"""Statistical validation of simulated fields.

Covers the Monte Carlo side (empirical covariance against the model,
duplication identity for Gegenbauer products over uniform poles) and the
normal-approximation side: the third absolute moment of a single wave, and
the resulting Kolmogorov-Smirnov error bound xi * mu3 / (sigma^3 sqrt(L)).
The constant xi = 0.4748 is the conservative upper end of the known range
for the inequality constant (the lower end is 0.4097).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, ndtr, roots_gegenbauer

from .covariance import QuadratureError, _panel_nodes
from .degree_sampling import mu3_converges, theta_prime_max
from .gegenbauer import gegenbauer_eval
from .simulator import _require_support, _wave_total, _wave_weights, sample_pole

__all__ = [
    "XI",
    "CovarianceEstimate",
    "empirical_covariance",
    "pair_lag_bins",
    "mu3_gegenbauer",
    "gegenbauer_abs_moment",
    "Mu3Result",
    "mu3_wave",
    "berry_esseen_bound",
    "BerryEsseenReport",
    "berry_esseen_report",
    "ks_normality",
    "DuplicationCheck",
    "duplication_check",
]

XI = 0.4748
_REL_TOL = 1e-4   # largest relative tail of a truncated mu3 sum that gives a KS bound


# ---------------------------------------------------------------------------
# empirical covariance
# ---------------------------------------------------------------------------

@dataclass
class CovarianceEstimate:
    """Binned lag estimates; estimate/se have shape (nbins, p, p)."""

    bin_centers: np.ndarray
    counts: np.ndarray          # pairs falling in each bin
    estimate: np.ndarray
    se: np.ndarray


def pair_lag_bins(points, pairs, bins: int):
    """Geodesic lag of each point pair and its bin among `bins` equal-width
    bins on [0, pi].  Bins are half-open except the last, which holds pi; a
    lag within 1e-12 below an edge counts as on it, so pairs whose exact lag
    is an edge do not fall a bin short by the last bits of arccos."""
    if not isinstance(bins, (int, np.integer)) or bins < 1:
        raise ValueError(f"bins must be a positive count of lag bins, got {bins!r}")
    pairs = np.atleast_2d(np.asarray(pairs, dtype=int))
    if pairs.shape[1] != 2 or np.any(pairs < 0) or np.any(pairs >= points.shape[0]):
        raise ValueError("pairs must be valid point-index pairs")
    dots = np.clip(np.sum(points[pairs[:, 0]] * points[pairs[:, 1]], axis=1), -1.0, 1.0)
    lags = np.arccos(dots)
    edges = np.linspace(0.0, np.pi, bins + 1)
    idx = np.searchsorted(edges, lags + 1e-12, side="right") - 1
    return lags, np.minimum(idx, bins - 1)


def empirical_covariance(values, pairs, bins, points) -> CovarianceEstimate:
    """Average of Z_i(x) Z_j(y) over realizations, binned by geodesic lag.

    values: (M, npts, p) realizations at the points; pairs: (npairs, 2)
    point indices; bins: a count, binned as pair_lag_bins does.  Standard
    errors come from the spread of per-realization bin means, so at least
    two realizations are required.
    """
    M, npts, p = values.shape
    if M < 2:
        raise ValueError("need at least two realizations for standard errors")
    pairs = np.atleast_2d(np.asarray(pairs, dtype=int))
    _, idx = pair_lag_bins(points, pairs, bins)

    counts = np.bincount(idx, minlength=bins)
    per_real = np.full((M, bins, p, p), np.nan)
    for b in np.flatnonzero(counts):
        rows = np.flatnonzero(idx == b)
        vx = values[:, pairs[rows, 0], :]
        vy = values[:, pairs[rows, 1], :]
        prod = np.einsum("mri,mrj->mij", vx, vy) / rows.size
        per_real[:, b] = 0.5 * (prod + np.transpose(prod, (0, 2, 1)))
    edges = np.linspace(0.0, np.pi, bins + 1)
    return CovarianceEstimate(
        bin_centers=0.5 * (edges[:-1] + edges[1:]), counts=counts,
        estimate=per_real.mean(axis=0), se=per_real.std(axis=0, ddof=1) / np.sqrt(M),
    )


# ---------------------------------------------------------------------------
# third absolute moment of a Gegenbauer wave profile
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def gegenbauer_abs_moment(n: int, d: int, power: int = 3) -> float:
    """E |G_n^((d-1)/2)(w . x)|^power for a uniform pole w on the d-sphere.

    Quadrature over the colatitude with panels split at the polynomial's
    zeros (|g|^power has only C^2 regularity there), refined until two node
    orders agree to 1e-8 relative.
    """
    if d < 2:
        raise ValueError("sphere dimension must be >= 2")
    if n < 0:
        raise ValueError("degree must be nonnegative")
    lam = 0.5 * (d - 1)
    prefactor = 2.0 / np.sqrt(np.pi) * np.exp(gammaln(0.5 * (d + 1)) - gammaln(0.5 * d))
    if n >= 2:
        zeros = roots_gegenbauer(n, lam)[0]
        phis = np.sort(np.arccos(zeros[(zeros > 0.0) & (zeros < 1.0)]))
    else:
        phis = np.array([])
    edges = np.concatenate([[0.0], phis, [0.5 * np.pi]])

    def integral(order):
        nodes, weights = _panel_nodes(edges, order)
        f = np.abs(gegenbauer_eval(lam, n, np.cos(nodes))) ** power
        f *= np.sin(nodes) ** (d - 1)
        return float(np.sum(f * weights))

    prev = integral(24)
    for order in (48, 96, 192):
        cur = integral(order)
        if abs(cur - prev) <= 1e-8 * max(abs(cur), 1e-300):
            return float(prefactor * cur)
        prev = cur
    raise QuadratureError(
        f"absolute-moment quadrature did not converge for degree {n}, d={d}"
    )


def mu3_gegenbauer(n: int, d: int) -> float:
    """Third absolute moment of the wave profile at one point."""
    return gegenbauer_abs_moment(n, d, 3)


# ---------------------------------------------------------------------------
# third absolute moment of a full wave, and the KS bound
# ---------------------------------------------------------------------------

@dataclass
class Mu3Result:
    value: float
    tail_bound: float
    n_max: int
    finite: bool

    @property
    def relative_tail(self) -> float:
        if self.value > 0:
            return self.tail_bound / self.value
        return np.inf if self.tail_bound > 0 else 0.0


def _mu3_series(spec, dist, n_last: int):
    """Degrees 0..n_last in the law's support and their moment terms
    a_n |w_n|^3 mu3_gegenbauer(n, d), with w_n the simulator's wave weight;
    a degree whose model coefficient vanishes contributes a zero term.  The
    cube is taken of a_n^(1/3) w_n: w_n^3 alone carries a_n^(-3/2) and can
    overflow on a light atom whose term is finite."""
    degrees = np.arange(n_last + 1)
    degrees = degrees[dist.in_support(degrees)]
    terms = (np.cbrt(dist.pmf(degrees)) * _wave_weights(spec, dist, degrees)) ** 3
    for i in np.flatnonzero(terms):
        terms[i] *= mu3_gegenbauer(int(degrees[i]), spec.d)
    return degrees, terms


def mu3_wave(spec, dist, n_max: int | None = None) -> Mu3Result:
    """Third absolute moment of one wave: the weighted coefficient series.

    Sums the exact terms up to a truncation degree and reports an analytic
    envelope bound on the dropped tail.  When the degree law's tail is too
    light for the coefficient decay (degree_sampling.mu3_converges fails)
    the series diverges and the result is flagged infinite instead of
    fabricating a number.
    """
    d = spec.d
    if d < 2:
        raise ValueError("the wave moment series is defined for d >= 2")
    bkind, bval = spec.decay()
    akind, aval = dist.tail()
    if not mu3_converges((bkind, bval), (akind, aval), d):
        return Mu3Result(value=np.inf, tail_bound=np.inf, n_max=0, finite=False)
    if "finite" in (bkind, akind):
        n_last = int(bval if bkind == "finite" else aval)
        _, terms = _mu3_series(spec, dist, n_last)
        return Mu3Result(value=float(np.sum(terms)), tail_bound=0.0, n_max=n_last, finite=True)

    # polynomial growth of everything except b^(3/2)/sqrt(a) in the terms
    growth = 1.5 + (3.0 * ((d - 1) // 2) if d >= 4 else 0.0)

    def tail_bound(n_trunc: int, last_term: float) -> float:
        if bkind == "geometric":
            ratio = bval**1.5 / (np.sqrt(aval) if akind == "geometric" else 1.0)
            step = 2.0 if spec.odd_support else 1.0
            extra = aval / 2.0 if akind == "zeta" else 0.0  # theta'/2 exponent
            rho = ratio**step * (1.0 + step / n_trunc) ** (growth + extra)
            if rho >= 1.0:
                return np.inf
            return 1.5 * last_term * rho / (1.0 - rho)
        # the terms decay like n^-s (times log n on d=3), s > 1 by the screen
        s = 1.0 + 0.5 * (theta_prime_max(bval, d) - aval)
        scale = 1.5 * last_term * float(n_trunc) ** s
        if d == 3:
            # integral of x^-s log x from n_trunc
            ln = np.log(n_trunc)
            return scale / ln * float(n_trunc) ** (1.0 - s) * (
                ln / (s - 1.0) + 1.0 / (s - 1.0) ** 2
            )
        return scale * float(n_trunc) ** (1.0 - s) / (s - 1.0)

    auto = n_max is None
    n_trunc = 64 if auto else int(n_max)
    while True:
        degrees, terms = _mu3_series(spec, dist, n_trunc)
        total = float(np.sum(terms))
        # anchor the envelope on the last nonzero term of degree >= 1 (none:
        # no bound): the law may load degrees where the model coefficient
        # vanishes (e.g. even degrees of an odd-only model), as may degree 0
        nonzero = np.flatnonzero((terms != 0.0) & (degrees >= 1))
        bound = (tail_bound(int(degrees[nonzero[-1]]), float(terms[nonzero[-1]]))
                 if nonzero.size else np.inf)
        if not auto or bound <= _REL_TOL * total or n_trunc >= 1024:
            return Mu3Result(value=total, tail_bound=float(bound),
                             n_max=n_trunc, finite=True)
        n_trunc *= 2


def berry_esseen_bound(mu3: float, sigma: float, L: int) -> float:
    """Upper bound xi * mu3 / (sigma^3 sqrt(L)) on the KS distance between the
    standardized ensemble marginal and the standard normal."""
    if not mu3 > 0.0 or not sigma > 0.0 or L < 1:
        raise ValueError("need mu3 > 0, sigma > 0 and L >= 1")
    return float(XI * mu3 / (sigma**3 * np.sqrt(L)))


@dataclass
class BerryEsseenReport:
    mu3: Mu3Result
    sigma: float
    L: int
    bound: float


def berry_esseen_report(spec, dist, L: int, n_max: int | None = None) -> BerryEsseenReport:
    """mu3_wave and the KS bound built on it.  The bound is inf (not
    established) when the series diverges or the truncated sum, only a lower
    bound on mu3, leaves a relative tail above _REL_TOL.  A wave count L
    that is no integer >= 1, or a law that cannot simulate the model, raises
    SimulationError before any quadrature, as SimulationConfig does."""
    L = _wave_total(L)
    _require_support(spec, dist)
    mu3 = mu3_wave(spec, dist, n_max=n_max)
    sigma = float(np.sqrt(spec.variance()))
    established = mu3.finite and mu3.relative_tail <= _REL_TOL
    bound = berry_esseen_bound(mu3.value, sigma, L) if established else np.inf
    return BerryEsseenReport(mu3=mu3, sigma=sigma, L=L, bound=bound)


def ks_normality(samples, sigma: float) -> float:
    """Exact one-sample Kolmogorov-Smirnov statistic of samples/sigma against
    the standard normal CDF."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 100:
        raise ValueError("need at least 100 samples")
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    x = np.sort(samples / sigma)
    n = x.size
    cdf = ndtr(x)
    d_plus = np.max(np.arange(1, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0, n) / n)
    return float(max(d_plus, d_minus))


# ---------------------------------------------------------------------------
# duplication identity
# ---------------------------------------------------------------------------

@dataclass
class DuplicationCheck:
    mc_mean: float
    se: float
    analytic: float


def duplication_check(n: int, k: int, d: int, x1, x2, M: int, rng) -> DuplicationCheck:
    """Monte Carlo test of the product identity: the average over uniform
    poles of G_n(w.x1) G_k(w.x2) equals delta_{nk} (d-1)/(2n+d-1) G_n(x1.x2)."""
    if d < 2:
        raise ValueError("sphere dimension must be >= 2")
    if M < 10_000:
        raise ValueError("need at least 1e4 pole draws")
    lam = 0.5 * (d - 1)
    x1 = np.asarray(x1, float)
    x2 = np.asarray(x2, float)
    poles = sample_pole(d, rng, size=M)
    g1 = gegenbauer_eval(lam, n, np.clip(poles @ x1, -1.0, 1.0))
    g2 = gegenbauer_eval(lam, k, np.clip(poles @ x2, -1.0, 1.0))
    prod = g1 * g2
    mc = float(prod.mean())
    se = float(prod.std(ddof=1) / np.sqrt(M))
    analytic = 0.0
    if n == k:
        r = float(np.clip(np.dot(x1, x2), -1.0, 1.0))
        analytic = (d - 1.0) / (2.0 * n + d - 1.0) * gegenbauer_eval(lam, n, r)
    return DuplicationCheck(mc_mean=mc, se=se, analytic=analytic)
