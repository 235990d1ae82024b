"""Discrete laws for the random wave degrees.

A degree law is admissible for a covariance model when its support contains
the support of the model's Schoenberg sequence.  Beyond admissibility, the
tail of the law controls whether the third absolute moment of a single wave
is finite, hence whether the normal-approximation error of the wave ensemble
decays like 1/sqrt(L).  mu3_converges is that criterion; the moment series
(diagnostics.mu3_wave) is screened by it and recommend_distribution chooses
inside it.

pmf, log_pmf and in_support read degrees as the models do (_per_degree):
integers or integral floats, a Python scalar for a scalar degree, and 0,
-inf and False at negative degrees; a law supplies the vectorized _log_pmf
(or _pmf) and, where its support is not every degree n >= 0, _in_support.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import zeta as riemann_zeta

from .covariance import NUMERIC_ZERO, _per_degree
from .gegenbauer import gegenbauer_log_at_one
from .grids import _spec_number

__all__ = [
    "FiniteDegrees",
    "GeometricDegrees",
    "ShiftedZeta",
    "OddShiftedZeta",
    "Recommendation",
    "recommend_distribution",
    "theta_prime_max",
    "mu3_converges",
    "support_covers",
]

ZETA_BATCH = 64     # Devroye candidates per batch, and per scalar draw attempt


class DegreeDistribution:
    """Common interface: pmf/log_pmf, exact sampling, support membership and
    the tail class."""

    def pmf(self, n):
        return _per_degree(self._pmf, n, 0.0)

    def log_pmf(self, n):
        return _per_degree(self._log_pmf, n, -np.inf)

    def in_support(self, n):
        return _per_degree(self._in_support, n, False)

    # bodies over an int64 array of nonnegative degrees; a law supplies
    # _log_pmf or _pmf
    def _pmf(self, n):
        return np.exp(self._log_pmf(n))

    def _log_pmf(self, n):
        with np.errstate(divide="ignore"):
            return np.log(self._pmf(n))

    def _in_support(self, n):
        return np.ones(n.shape, dtype=bool)

    # uniforms one draw attempt reads from the stream, in one call
    _row_width = 1

    def _row_degrees(self, rows):
        """(degrees, accepted) of draw attempts, one per row of uniforms of
        shape (m, _row_width).  sample(rng) reads one row per attempt from
        the stream and takes its degree by this arithmetic (the batch
        sample(rng, size) shares it), so a caller that reads the same rows
        gets sample's degrees bit for bit.  A rejected row holds a degree
        within int64."""
        raise NotImplementedError

    def _int64(self, degrees) -> np.ndarray:
        """Drawn degrees as int64.  A float draw (an inversion's floor) of
        2**63 or more, inf or NaN has no int64 and raises ValueError."""
        if degrees.dtype.kind == "f" and not np.all(degrees < 2.0**63):
            raise ValueError(f"degree law {self.spec_string()} drew a degree beyond int64")
        return degrees.astype(np.int64)

    def sample(self, rng, size=None):
        """One degree (an int), or an int64 array of `size` degrees."""
        degrees, _ = self._row_degrees(rng.random((1 if size is None else int(size), 1)))
        degrees = self._int64(degrees)
        return int(degrees[0]) if size is None else degrees

    def tail(self):
        """('finite', last atom), ('geometric', 1-p) or ('zeta', theta):
        the pmf's decay, which mu3_converges weighs against the model's."""
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError


class FiniteDegrees(DegreeDistribution):
    """Law with finitely many atoms 0..len(pmf)-1."""

    def __init__(self, pmf):
        pmf = np.asarray(pmf, dtype=float)
        if pmf.ndim != 1 or pmf.size == 0:
            raise ValueError("pmf must be a nonempty vector")
        if np.any(pmf < 0.0) or not np.all(np.isfinite(pmf)):
            raise ValueError("pmf entries must be finite and nonnegative")
        total = pmf.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"pmf must sum to 1 within 1e-12, got {total!r}")
        self._given = pmf           # spec_string writes these, so it reads back as this law
        self.probs = pmf / total
        # 1 from the last positive atom on: no uniform reaches a zero-mass tail
        self._cdf = np.cumsum(self.probs)
        self._cdf[np.flatnonzero(self.probs)[-1]:] = 1.0

    def _pmf(self, n):
        last = self.probs.size - 1
        return np.where(n <= last, self.probs[np.minimum(n, last)], 0.0)

    def _row_degrees(self, rows):
        degrees = np.searchsorted(self._cdf, rows[:, 0], side="right")
        return degrees, np.ones(degrees.shape, dtype=bool)

    def _in_support(self, n):
        return self._pmf(n) > 0.0

    def tail(self):
        return ("finite", int(np.flatnonzero(self.probs)[-1]))

    def spec_string(self):
        return "finite:" + ",".join(f"{p:.17g}" for p in self._given)


class GeometricDegrees(DegreeDistribution):
    """a_n = p (1-p)^n on n >= 0, sampled by inversion of the closed-form CDF."""

    def __init__(self, p: float):
        if not 0.0 < p < 1.0:
            raise ValueError(f"success probability must lie in (0, 1), got {p}")
        self.p = float(p)

    def _log_pmf(self, n):
        return np.log(self.p) + n * np.log1p(-self.p)

    def _row_degrees(self, rows):
        # inversion; the degrees stay floats (inf where p is subnormal) for
        # _int64 to check their range
        with np.errstate(over="ignore"):
            degrees = np.floor(np.log1p(-rows[:, 0]) / np.log1p(-self.p))
        return degrees, np.ones(degrees.shape, dtype=bool)

    def tail(self):
        return ("geometric", 1.0 - self.p)

    def spec_string(self):
        return f"geometric:{_spec_number(self.p)}"


def _devroye_candidates(theta: float, u, v):
    """One step of Devroye's rejection scheme for X >= 1 with pmf
    proportional to X^-theta, elementwise on candidate uniforms u and v of
    any one shape: (candidates X as floats, accepted).

    Candidates come from inverting the Pareto envelope, the squeeze uses the
    ratio T = (1+1/X)^(theta-1); expected trials per draw are bounded
    uniformly in theta > 1.
    """
    b = 2.0 ** (theta - 1.0)
    inv_exp = -1.0 / (theta - 1.0)
    with np.errstate(over="ignore", divide="ignore"):
        x = np.floor(u**inv_exp)
        t = (1.0 + 1.0 / x) ** (theta - 1.0)
        ok = np.isfinite(x) & (x < 2.0**62)
        ok &= v * x * (t - 1.0) / (b - 1.0) <= t / b
    return x, ok


def _devroye_zeta(theta: float, rng, count: int) -> np.ndarray:
    """count exact draws X >= 1 with pmf proportional to X^-theta: batches
    of at least ZETA_BATCH candidates, u then v read in one call, until
    count are accepted."""
    out = np.empty(count, dtype=np.int64)
    filled = 0
    while filled < count:
        m = max(ZETA_BATCH, 2 * (count - filled))
        uv = rng.random(2 * m)
        x, ok = _devroye_candidates(theta, uv[:m], uv[m:])
        accepted = x[ok]
        take = min(accepted.size, count - filled)
        out[filled : filled + take] = accepted[:take].astype(np.int64)
        filled += take
    return out


class _ZetaLaw(DegreeDistribution):
    """Exponent theta > 1 and the polynomial tail shared by the zeta laws."""

    def __init__(self, theta: float):
        if not theta > 1.0:
            raise ValueError(f"zeta exponent must exceed 1, got {theta}")
        self.theta = float(theta)
        self._zeta = float(riemann_zeta(self.theta))

    # one draw attempt: ZETA_BATCH candidates u, then their ZETA_BATCH v
    _row_width = 2 * ZETA_BATCH

    def tail(self):
        return ("zeta", self.theta)

    def _row_degrees(self, rows):
        # each row's first accepted candidate, as _devroye_zeta takes it
        x, ok = _devroye_candidates(self.theta, rows[:, :ZETA_BATCH], rows[:, ZETA_BATCH:])
        first = ok.argmax(axis=1)
        every = np.arange(rows.shape[0])
        accepted = ok[every, first]
        draws = np.where(accepted, x[every, first], 1.0).astype(np.int64)
        return self._from_draws(draws), accepted

    def sample(self, rng, size=None):
        if size is None:
            return int(self._from_draws(_devroye_zeta(self.theta, rng, 1))[0])
        return self._from_draws(_devroye_zeta(self.theta, rng, int(size)))


class ShiftedZeta(_ZetaLaw):
    """a_n = (n+1)^(-theta) / zeta(theta) on n >= 0.

    The classical zeta law lives on {1, 2, ...}; shifting it down by one keeps
    the polynomial tail needed by the convergence criterion while covering
    degree 0, which every catalog model except the odd-degree one loads.
    """

    def _log_pmf(self, n):
        return -self.theta * np.log(n + 1.0) - np.log(self._zeta)

    @staticmethod
    def _from_draws(draws):
        return draws - 1

    def spec_string(self):
        return f"zeta:{_spec_number(self.theta)}"


class OddShiftedZeta(_ZetaLaw):
    """Mass (m+1)^(-theta)/zeta(theta) on the odd degrees 2m+1, m >= 0."""

    def _log_pmf(self, n):
        m = (n - 1.0) / 2.0
        return np.where(n % 2 == 1, -self.theta * np.log(m + 1.0) - np.log(self._zeta), -np.inf)

    @staticmethod
    def _from_draws(draws):
        return 2 * draws - 1

    def _in_support(self, n):
        return n % 2 == 1

    def spec_string(self):
        return f"oddzeta:{_spec_number(self.theta)}"


# ---------------------------------------------------------------------------
# selection criteria
# ---------------------------------------------------------------------------

def theta_prime_max(theta: float, d: int) -> float:
    """Upper end of the admissible zeta-exponent interval for coefficient
    decay n^-theta on the d-sphere; on the circle the third moment of the
    cosine wave is bounded, which matches the d=2 branch."""
    if d <= 2:
        return 3.0 * theta - 2.0
    if d == 3:
        return 3.0 * theta - 5.0
    return 3.0 * theta - 5.0 - 6.0 * ((d - 1) // 2)


def mu3_converges(decay, tail, d: int) -> bool:
    """Whether the third absolute moment of one wave, the series of
    a_n |w_n|^3 mu3_gegenbauer(n, d), is finite for coefficient decay
    `decay` (model.decay()) under a degree law of tail `tail` (law.tail()).

    A finite model or law gives a finite sum.  Geometric coefficients with
    root r need a zeta law or a geometric one with 1-p > r^3; polynomial
    coefficients n^-theta need a zeta law with exponent below
    theta_prime_max(theta, d)."""
    bkind, bval = decay
    akind, aval = tail
    if bkind == "finite" or akind == "finite":
        return True
    if bkind == "geometric":
        return akind == "zeta" or bval**3 < aval
    return akind == "zeta" and aval < theta_prime_max(bval, d)


@dataclass
class Recommendation:
    distribution: DegreeDistribution
    case: int
    interval: tuple | None = None
    warning: str | None = None


def recommend_distribution(spec) -> Recommendation:
    """Pick a degree law for the model per the tail-based convergence cases.

    Case 1: finitely supported coefficients -> matching finite pmf weighted
    by the wave energy b_n G_n(1).  Case 2: geometric decay with root r ->
    geometric law with p = min(0.01, (1 - r^3)/2), so 1-p > r^3 strictly.
    Case 3: polynomial decay n^-theta -> (odd-)shifted zeta with exponent at
    the midpoint of (1, theta_prime_max), at most 2; when that interval is
    empty the default exponent 2 is returned.  A law outside mu3_converges
    carries a warning that the normal-approximation bound is not guaranteed
    finite.
    """
    decay = spec.decay()
    kind, value = decay
    d = spec.d
    interval = None
    if kind == "finite":
        n_last = int(value)
        degrees = np.arange(n_last + 1)
        with np.errstate(divide="ignore"):
            log_b = (spec.log_schoenberg_coeff(degrees) if spec.p == 1
                     else np.log(spec.magnitude(degrees)))
        log_w = log_b + (gegenbauer_log_at_one(0.5 * (d - 1), degrees) if d >= 2 else 0.0)
        finite = np.isfinite(log_w)
        w = np.zeros(n_last + 1)
        w[finite] = np.exp(log_w[finite] - log_w[finite].max())
        law, case = FiniteDegrees(w / w.sum()), 1
    elif kind == "geometric":
        law, case = GeometricDegrees(min(0.01, 0.5 * (1.0 - value**3))), 2
    else:
        tp_max = theta_prime_max(value, d)
        interval = (1.0, tp_max)
        make = OddShiftedZeta if spec.odd_support else ShiftedZeta
        law, case = make(min(2.0, 0.5 * (1.0 + tp_max)) if tp_max > 1.0 else 2.0), 3
    warning = (None if mu3_converges(decay, law.tail(), d)
               else "Berry-Esseen bound not guaranteed finite")
    return Recommendation(law, case=case, interval=interval, warning=warning)


def support_covers(dist: DegreeDistribution, spec, n_max: int):
    """None when the law loads every degree the model loads (up to n_max);
    otherwise the first uncovered degree.  The model is evaluated only at
    the degrees the law leaves out, so a law of full support costs no
    coefficient."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    degrees = np.arange(n_max + 1)
    missing = degrees[~dist.in_support(degrees)]
    if missing.size:
        missing = missing[spec.magnitude(missing) > NUMERIC_ZERO]
    return int(missing[0]) if missing.size else None
