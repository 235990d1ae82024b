"""Isotropic covariance model catalog for the d-sphere.

Each model supplies its Schoenberg coefficients (the nonnegative weights of
the Gegenbauer expansion of the covariance) plus, where available, a closed
form for the covariance itself.  Multivariate models supply p x p Schoenberg
matrices and their square-root factors.  All gamma/beta/Pochhammer arithmetic
is done in log space so that high sphere dimensions (lambda ~ 130) and high
degrees survive without overflow.

Every public method that takes degrees reads them through _per_degree, which
the degree laws share: a model or law supplies only a body vectorized over
an int64 array of degrees, and a scalar degree gives a Python scalar.
Each constructor ends with require_valid, so a model that exists is valid.
"""

from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np
from scipy.special import betaln, gammaln, loggamma

from .gegenbauer import (
    _recurrence,
    gegenbauer_eval,
    gegenbauer_log_at_one,
    gegenbauer_norm_sq,
)

__all__ = [
    "ModelError",
    "QuadratureError",
    "NegativeBinomial",
    "SpectralMatern",
    "GeneralizedF",
    "Chentsov",
    "Exponential",
    "SequenceCovariance",
    "BivariateNegativeBinomial",
    "BivariateSpectralMatern",
    "SequenceMultiCovariance",
    "SchoenbergFactor",
    "require_valid",
    "schoenberg_coeff_quadrature",
    "factor_schoenberg_matrix",
    "chentsov_coeff_direct",
]

NUMERIC_ZERO = 1e-300
PSD_TOL = 1e-12


class ModelError(ValueError):
    """Invalid covariance model parameters or an indefinite Schoenberg matrix."""


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested tolerance."""


def require_valid(spec) -> None:
    """Raise ModelError listing every constraint spec.validate() finds violated."""
    violations = spec.validate()
    if violations:
        raise ModelError("; ".join(violations))


def _lam(d: int) -> float:
    return 0.5 * (d - 1)


# ---------------------------------------------------------------------------
# scalar models
# ---------------------------------------------------------------------------

class Covariance:
    """Base class for scalar isotropic covariance models on the d-sphere;
    immutable, and valid once built (its constructor calls require_valid)."""

    p = 1
    odd_support = False

    def validate(self) -> list[str]:
        raise NotImplementedError

    def log_schoenberg_coeff(self, n):
        """log b_n, vectorized over the degrees n; -inf where the coefficient
        is zero.  Negative degrees are rejected; a scalar n gives a float."""
        return _per_degree(self._log_coeff, n)

    def schoenberg_coeff(self, n):
        return _per_degree(self._coeff, n)

    def _log_coeff(self, n: np.ndarray) -> np.ndarray:
        """log b_n for an int array of nonnegative degrees, elementwise."""
        raise NotImplementedError

    def _coeff(self, n: np.ndarray) -> np.ndarray:
        return np.exp(self._log_coeff(n))

    def coeff_table(self, n_max: int) -> np.ndarray:
        return self._coeff(np.arange(n_max + 1))

    def magnitude(self, degrees):
        """|b_n| at the degrees (support bookkeeping): the coefficients."""
        return self.schoenberg_coeff(degrees)

    def covariance(self, theta):
        raise NotImplementedError

    def variance(self) -> float:
        return float(self.covariance(0.0))

    def decay(self):
        """Tail behaviour of the coefficients.

        ('finite', n_last), ('geometric', r) with limsup b_n^(1/n) = r, or
        ('poly', t) with b_n = O(n^-t).  Drives degree-law selection and the
        truncation of series sums.
        """
        raise NotImplementedError


def _per_degree(body, n, negative=None):
    """body applied to the degrees n as a 1-d int64 array (a view of n where
    n is one, so body must not write into it), its result shaped as n: a
    Python scalar for a scalar n, with the bits of an array call.  Integers
    and integral floats are read; NaN, inf, fractions and values beyond
    int64 raise ValueError.  Negative degrees raise too, unless `negative`
    is their value: body then sees them as degree 0."""
    raw = np.asarray(n)
    if raw.dtype.kind != "i":
        x = raw.astype(float)
        bad = ~((np.abs(x) < 2.0**63) & (x == np.trunc(x)))
        if bad.any():
            raise ValueError(f"degree must be an integer within int64, got {float(x[bad][0])!r}")
    degrees = raw.astype(np.int64, copy=False).ravel()
    below = degrees < 0
    if not below.any():
        out = body(degrees)
    elif negative is None:
        raise ValueError("degree must be nonnegative")
    else:
        out = np.where(below, negative, body(np.maximum(degrees, 0)))
    out = out.reshape(raw.shape + out.shape[1:])
    return out.item() if out.ndim == 0 else out


def _check_theta(theta):
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < 0.0) or np.any(theta > np.pi):
        raise ValueError("geodesic angle must lie in [0, pi]")
    return theta


def _schoenberg_series(coeffs: np.ndarray, d: int, theta):
    """sum_n c_n G_n^((d-1)/2)(cos theta), or sum_n c_n cos(n theta) on the
    circle, for coefficients c of shape (N,) + S and angles of any shape:
    shape S + theta.shape, a float when both are scalar.  One term at a
    time, in degree order, so each entry has the bits of its own series."""
    theta = _check_theta(theta)
    t = np.atleast_1d(theta)
    if d == 1:
        terms = (np.cos(n * t) for n in range(coeffs.shape[0]))
    else:
        terms = _recurrence(_lam(d), np.cos(t))
    acc = np.zeros(coeffs.shape[1:] + t.shape)
    for c, g in zip(coeffs.reshape(coeffs.shape + (1,) * t.ndim), terms):
        acc += c * g
    out = acc.reshape(coeffs.shape[1:] + theta.shape)
    return float(out) if out.ndim == 0 else out


def _series_truncation(model: "Covariance", tol: float = 1e-8) -> int:
    """First N whose bound on sum_{n>N} b_n G_n(1) falls below tol, for a
    model whose coefficients decay as ('poly', t) with t > d - 1 (its validate
    makes sure of that), so that b_n G_n(1) ~ n^-(t-d+2) is summable."""
    _, value = model.decay()
    d = model.d
    s = value - (d - 2)  # effective exponent of b_n G_n(1)
    n = 64
    while True:
        term = model.schoenberg_coeff(n) * float(
            np.exp(gegenbauer_log_at_one(_lam(d), n)) if d >= 2 else 1.0
        )
        bound = term * n / (s - 1.0)
        if bound < tol:
            return n
        n *= 2
        if n > 2**22:
            raise ModelError("covariance series truncation did not converge")


class NegativeBinomial(Covariance):
    """Geometric Schoenberg sequence b_n = (1-delta) delta^n.

    The closed covariance form follows from the Gegenbauer generating
    function; on the 2-sphere it is (1-delta)/sqrt(1+delta^2-2delta cos t).
    """

    def __init__(self, delta: float, d: int = 2):
        self.delta = float(delta)
        self.d = int(d)
        require_valid(self)

    def validate(self):
        out = []
        if not 0.0 < self.delta < 1.0:
            out.append(f"delta must lie in the open interval (0, 1), got {self.delta}")
        if self.d < 1:
            out.append(f"sphere dimension must be >= 1, got {self.d}")
        return out

    def _log_coeff(self, n):
        return np.log1p(-self.delta) + n * np.log(self.delta)

    def _coeff(self, n):
        # direct product is exact where the log path rounds
        return (1.0 - self.delta) * self.delta ** n.astype(float)

    def covariance(self, theta):
        theta = _check_theta(theta)
        delta = self.delta
        q = 1.0 + delta * delta - 2.0 * delta * np.cos(theta)
        if self.d == 1:
            return (1.0 - delta) * (1.0 - delta * np.cos(theta)) / q
        return (1.0 - delta) * q ** (-_lam(self.d))

    def describe(self) -> str:
        return f"nb(delta={self.delta:g}, d={self.d})"

    def decay(self):
        return ("geometric", self.delta)


@lru_cache(maxsize=None)
def _sm_log_normalizer(alpha: float, nu: float) -> float:
    """log of sum_{k>=0} (k^2+alpha^2)^(-nu-1/2) to ~1e-12 relative accuracy.

    Partial sum plus the integral tail plus the first Euler-Maclaurin
    corrections; the raw integral-test stopping rule alone would need ~1e12
    terms for nu <= 1/2.
    """
    from scipy.integrate import quad     # only here: scipy.integrate is ~0.4 s of import

    s = nu + 0.5
    a2 = alpha * alpha

    def f(x):
        return (x * x + a2) ** (-s)

    def total(n):
        k = np.arange(n)
        head = float(np.sum(f(k)))
        tail_int, _ = quad(f, n, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)
        fp = -2.0 * s * n * (n * n + a2) ** (-s - 1.0)
        return head + tail_int + 0.5 * f(n) - fp / 12.0

    n = 4096
    prev = total(n)
    cur = total(2 * n)
    if not abs(cur - prev) <= 1e-12 * abs(cur):
        raise ModelError("normalizing sum for the spectral-Matern model did not converge")
    return float(np.log(cur))


def _sm_nu_violations(d: int, **nus) -> list[str]:
    """What is wrong with each named spectral-Matern exponent on the d-sphere:
    it must be positive and, as b_n G_n(1) ~ n^-(2 nu + 3 - d), exceed (d-2)/2
    for the variance series to converge."""
    out = []
    for name, nu in nus.items():
        if not nu > 0.0:
            out.append(f"{name} must be positive, got {nu}")
        elif not nu > 0.5 * (d - 2):
            out.append(f"{name} must exceed (d-2)/2 = {0.5 * (d - 2):g} for the coefficient "
                       f"series to converge, got {name} = {nu}")
    return out


class SpectralMatern(Covariance):
    """Normalized power-law Schoenberg sequence (n^2+alpha^2)^(-nu-1/2)."""

    def __init__(self, alpha: float, nu: float, d: int = 2):
        self.alpha = float(alpha)
        self.nu = float(nu)
        self.d = int(d)
        require_valid(self)

    def validate(self):
        out = []
        if not self.alpha > 0.0:
            out.append(f"alpha must be positive, got {self.alpha}")
        out += _sm_nu_violations(self.d, nu=self.nu)
        if self.d < 1:
            out.append(f"sphere dimension must be >= 1, got {self.d}")
        return out

    def _log_coeff(self, n):
        n = n.astype(float)
        s = self.nu + 0.5
        return -s * np.log(n * n + self.alpha**2) - _sm_log_normalizer(self.alpha, self.nu)

    def covariance(self, theta):
        return _schoenberg_series(self.coeff_table(_series_truncation(self)), self.d, theta)

    def describe(self) -> str:
        return f"sm(alpha={self.alpha:g}, nu={self.nu:g}, d={self.d})"

    def decay(self):
        return ("poly", 2.0 * self.nu + 1.0)


class GeneralizedF(Covariance):
    """Beta/Pochhammer Schoenberg sequence with algebraic decay n^-(nu+1)."""

    def __init__(self, alpha: float, nu: float, tau: float, d: int = 2):
        self.alpha = float(alpha)
        self.nu = float(nu)
        self.tau = float(tau)
        self.d = int(d)
        require_valid(self)

    def validate(self):
        out = []
        if not self.alpha > 0.0:
            out.append(f"alpha must be positive, got {self.alpha}")
        if not self.nu > 0.0:
            out.append(f"nu must be positive, got {self.nu}")
        if not self.tau > 0.0:
            out.append(f"tau must be positive, got {self.tau}")
        if self.d < 1:
            out.append(f"sphere dimension must be >= 1, got {self.d}")
        elif not self.nu > self.d - 2:
            out.append(
                f"nu must exceed d-2 = {self.d - 2} for the coefficient series "
                f"to converge, got nu = {self.nu}"
            )
        return out

    def _log_coeff(self, n):
        n = n.astype(float)
        a, v, t = self.alpha, self.nu, self.tau
        sig = a + v + t
        log_b0 = betaln(a, v + t) - betaln(a, v)
        return (
            log_b0
            + gammaln(a + n) - gammaln(a)
            + gammaln(t + n) - gammaln(t)
            + gammaln(sig) - gammaln(sig + n)
            - gammaln(n + 1.0)
        )

    def covariance(self, theta):
        return _schoenberg_series(self.coeff_table(_series_truncation(self)), self.d, theta)

    def describe(self) -> str:
        return f"f(alpha={self.alpha:g}, nu={self.nu:g}, tau={self.tau:g}, d={self.d})"

    def decay(self):
        return ("poly", self.nu + 1.0)


def chentsov_coeff_direct(d: int, n: int) -> float:
    """Closed-form coefficient of the chordlike covariance 1 - 2t/pi.

    Zero at even degrees; at odd degrees a pure gamma quotient of plain
    gammaln values.  Kept separate from the model's differenced form so the
    two can cross-check each other.  The two doubled gammaln values grow like
    n log n and cancel, so digits go at large n: against 40-digit mpmath at
    d = 3, log b_n is off by 3.4e-11 at n = 10,001, 1.3e-10 at 1e6 + 1,
    1.6e-7 at 1e8 + 1 and 7.8e-4 at 2**40 + 1, where the model's differenced
    form stays within 1.5e-14.
    """
    if d < 2:
        raise ModelError("closed-form coefficients require sphere dimension >= 2")
    if n % 2 == 0:
        return 0.0
    k = (n - 1) // 2
    lam = _lam(d)
    log_b = (
        np.log(lam + 2.0 * k + 1.0)
        + gammaln(lam)
        + gammaln(lam + 1.0)
        - 2.0 * np.log(np.pi)
        + 2.0 * gammaln(k + 0.5)
        - 2.0 * gammaln(lam + k + 1.5)
    )
    return float(np.exp(log_b))


class Chentsov(Covariance):
    """Piecewise-linear covariance 1 - 2*theta/pi; odd-degree spectrum only.

    The coefficient of degree n = 2k + 1 is the gamma quotient of
    chentsov_coeff_direct, with its two large gamma values differenced as
    _log_gamma_shift(k + 1/2, lam + 1) at odd n only: O(1) time and memory
    per degree, and each coefficient is computed from its own degree alone.
    """

    odd_support = True

    def __init__(self, d: int = 2):
        self.d = int(d)
        require_valid(self)

    def validate(self):
        out = []
        if self.d < 2:
            out.append(
                f"closed-form coefficients require sphere dimension >= 2, got {self.d}"
            )
        return out

    def _log_coeff(self, n):
        lam = _lam(self.d)
        odd = n % 2 == 1
        k = n[odd] // 2
        out = np.full(n.shape, -np.inf)
        out[odd] = (np.log(lam + 2.0 * k + 1.0) + gammaln(lam) + gammaln(lam + 1.0)
                    - 2.0 * np.log(np.pi) - 2.0 * _log_gamma_shift(k + 0.5, lam + 1.0))
        return out

    def covariance(self, theta):
        theta = _check_theta(theta)
        return 1.0 - 2.0 * theta / np.pi

    def describe(self) -> str:
        return f"chentsov(d={self.d})"

    def decay(self):
        return ("poly", float(self.d))


_STIRLING_MIN = 32.0   # |z| from which _log_gamma_shift takes the Stirling difference
# B_2k / (2k (2k-1)), k = 1..4: with |z| >= 32 the first term left out is below 1e-16
_STIRLING_TERMS = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0)


def _log_gamma_shift(z, s: float) -> np.ndarray:
    """Re[log Gamma(z+s) - log Gamma(z)] for complex z with Re z >= 0, z != 0,
    and real s > 0.

    Below |z| = _STIRLING_MIN this is the difference of two loggamma values.
    Above it those values reach |z| log |z| (1.1e6 at |z| = 1e5), so their
    difference is only good to a few ulp of that; there the Stirling series
    is differenced term by term instead,
    s log z + (z+s-1/2) log1p(s/z) - s + sum_k c_k ((z+s)^(1-2k) - z^(1-2k)),
    and no intermediate is larger than the result.  log1p(w) for complex
    w = s/z (Re w >= 0) is 1/2 log1p(2 Re w + |w|^2) + i atan2(Im w, 1 + Re w).
    """
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape)
    big = np.abs(z) >= _STIRLING_MIN
    small = z[~big]
    out[~big] = (loggamma(small + s) - loggamma(small)).real
    z = z[big]
    w = s / z
    log1p_w = (0.5 * np.log1p(2.0 * w.real + w.real * w.real + w.imag * w.imag)
               + 1j * np.arctan2(w.imag, 1.0 + w.real))
    shift = s * np.log(z) + (z + (s - 0.5)) * log1p_w - s
    for k, c in enumerate(_STIRLING_TERMS):
        shift += c * ((z + s) ** (-2 * k - 1) - z ** (-2 * k - 1))
    out[big] = shift.real
    return out


class Exponential(Covariance):
    """Covariance exp(-nu*theta); coefficients via squared-modulus gamma quotients.

    The quotient log |Gamma(z)|^2 - log |Gamma(z+s)|^2, z = (n+i*nu)/2,
    s = (d+1)/2, is -2 Re[log Gamma(z+s) - log Gamma(z)] (_log_gamma_shift);
    the even/odd prefactors are written as (1 -+ exp(-pi*nu))/2 so that large
    nu cannot overflow.
    """

    def __init__(self, nu: float, d: int = 2):
        self.nu = float(nu)
        self.d = int(d)
        require_valid(self)

    def validate(self):
        out = []
        if not self.nu > 0.0:
            out.append(f"nu must be positive, got {self.nu}")
        if self.d < 2:
            out.append(
                f"closed-form coefficients require sphere dimension >= 2, got {self.d}"
            )
        return out

    def _log_coeff(self, n):
        nu, d = self.nu, self.d
        lam = _lam(d)
        log_c_even = np.log(nu) + np.log1p(-np.exp(-np.pi * nu)) - np.log(4.0 * np.pi)
        log_c_odd = np.log(nu) + np.log1p(np.exp(-np.pi * nu)) - np.log(4.0 * np.pi)
        return (
            np.where(n % 2 == 0, log_c_even, log_c_odd)
            + np.log(lam + n)
            + gammaln(lam)
            + gammaln(lam + 1.0)
            - 2.0 * _log_gamma_shift(0.5 * (n + 1j * nu), 0.5 * (d + 1))
        )

    def covariance(self, theta):
        theta = _check_theta(theta)
        return np.exp(-self.nu * theta)

    def describe(self) -> str:
        return f"exponential(nu={self.nu:g}, d={self.d})"

    def decay(self):
        return ("poly", float(self.d))


class SequenceCovariance(Covariance):
    """Model given directly by a finite Schoenberg sequence."""

    def __init__(self, coeffs, d: int):
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.d = int(d)
        require_valid(self)

    def validate(self):
        out = []
        if self.coeffs.ndim != 1 or self.coeffs.size == 0:
            out.append("coefficient sequence must be a nonempty vector")
            return out
        if not np.all(np.isfinite(self.coeffs)):
            out.append("coefficients must be finite")
        if np.any(self.coeffs < 0.0):
            out.append("coefficients must be nonnegative")
        if not np.any(self.coeffs > 0.0):
            out.append("at least one coefficient must be positive")
        if self.d < 1:
            out.append(f"sphere dimension must be >= 1, got {self.d}")
        return out

    def _log_coeff(self, n):
        out = np.full(n.shape, -np.inf)
        inside = n < self.coeffs.size
        with np.errstate(divide="ignore"):
            out[inside] = np.log(self.coeffs[n[inside]])
        return out

    def covariance(self, theta):
        return _schoenberg_series(self.coeffs, self.d, theta)

    def describe(self) -> str:
        body = ",".join(f"{c:g}" for c in self.coeffs)
        return f"sequence([{body}], d={self.d})"

    def decay(self):
        nonzero = np.nonzero(self.coeffs)[0]
        return ("finite", int(nonzero[-1]))


# ---------------------------------------------------------------------------
# inversion-formula quadrature (the independent oracle for every closed form)
# ---------------------------------------------------------------------------

@cache
def _gauss_legendre(order: int):
    return np.polynomial.legendre.leggauss(order)


def _panel_nodes(edges: np.ndarray, order: int):
    """Nodes and weights of composite Gauss-Legendre of the given order on
    the panels between consecutive edges."""
    x, w = _gauss_legendre(order)
    half = 0.5 * np.diff(edges)
    centers = edges[:-1] + half
    nodes = (centers[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def schoenberg_coeff_quadrature(K, n: int, d: int, *, abs_tol: float = 1e-10) -> float:
    """Degree-n coefficient of the covariance K by the inversion integral.

    Composite Gauss-Legendre with panel doubling until two successive
    refinements agree within abs_tol.  K must accept a numpy array of angles.
    """
    if d < 2:
        raise ValueError("quadrature inversion requires sphere dimension >= 2")
    if n < 0:
        raise ValueError("degree must be nonnegative")
    lam = _lam(d)
    norm = gegenbauer_norm_sq(d, n)

    def integrand(theta):
        return (
            gegenbauer_eval(lam, n, np.cos(theta))
            * np.sin(theta) ** (d - 1)
            * np.asarray(K(theta), dtype=float)
        )

    def integral(panels):
        nodes, weights = _panel_nodes(np.linspace(0.0, np.pi, panels + 1), 16)
        return float(np.sum(integrand(nodes) * weights)) / norm

    panels = max(8, n + 4)
    prev = integral(panels)
    err = np.inf
    for _ in range(8):
        panels *= 2
        cur = integral(panels)
        err = abs(cur - prev)
        if err <= abs_tol:
            return cur
        prev = cur
    raise QuadratureError(
        f"coefficient quadrature did not reach {abs_tol:g}; achieved error "
        f"estimate {err:g} at {panels} panels"
    )


# ---------------------------------------------------------------------------
# multivariate models
# ---------------------------------------------------------------------------

class MultiCovariance:
    """Base class for p-variate isotropic models (matrix Schoenberg sequence);
    immutable, and valid once built (its constructor calls require_valid)."""

    odd_support = False

    def validate(self) -> list[str]:
        raise NotImplementedError

    def schoenberg_matrix(self, n):
        """B_n, vectorized over the degrees n: shape n.shape + (p, p).  A
        matrix that is not positive semidefinite raises ModelError naming
        the first such degree."""
        def checked(degrees):
            B = self._matrices(degrees)
            w = np.linalg.eigvalsh(B)
            bad = _indefinite(w, B)
            if bad.any():
                raise ModelError(f"Schoenberg matrix at degree {degrees[bad][0]} is not positive "
                                 f"semidefinite: min eigenvalue {w[bad][0].min():g}")
            return B
        return _per_degree(checked, n)

    def _matrices(self, n: np.ndarray) -> np.ndarray:
        """B_n for an int array of nonnegative degrees, shape n.shape + (p, p)."""
        raise NotImplementedError

    def magnitude(self, degrees):
        """Largest absolute entry of B_n at the degrees (support bookkeeping)."""
        return _per_degree(lambda n: np.abs(self._matrices(n)).max(axis=(-2, -1)), degrees)

    def covariance(self, theta):
        raise NotImplementedError

    def variance(self):
        return np.diag(self.covariance(0.0)).copy()


def _indefinite(w: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Whether each matrix of the stack B, of eigenvalues w, has one below
    -PSD_TOL times its |trace| (at least NUMERIC_ZERO)."""
    trace = np.abs(np.trace(B, axis1=-2, axis2=-1))
    return w.min(axis=-1) < -PSD_TOL * np.maximum(trace, NUMERIC_ZERO)


def _round_off(B: np.ndarray) -> np.ndarray:
    """1e-12 max(1, max |entry|) per matrix of the stack B: the tolerance of
    the symmetry rule and of a factor's round trip."""
    return 1e-12 * np.maximum(1.0, np.abs(B).max(axis=(-2, -1)))


def _symmetric(B: np.ndarray) -> np.ndarray:
    """Whether each matrix of the stack B is within _round_off of its
    transpose in every entry (a NaN entry never is)."""
    return np.abs(B - B.swapaxes(-2, -1)).max(axis=(-2, -1)) <= _round_off(B)


class _BivariateFromScalars(MultiCovariance):
    """Bivariate model assembled from three scalar models: the two
    components and a cross model whose coefficients and covariance are
    scaled by rho.  Subclasses name the three models in _models()."""

    p = 2

    def _models(self) -> tuple:
        """The scalar models of entries 11, 12 and 22."""
        raise NotImplementedError

    def component(self, i: int) -> Covariance:
        return self._models()[2 * i]

    def _matrices(self, n):
        m11, m12, m22 = self._models()
        b12 = self.rho * m12._coeff(n)
        entries = np.stack([m11._coeff(n), b12, b12, m22._coeff(n)], axis=-1)
        return entries.reshape(n.shape + (2, 2))

    def covariance(self, theta):
        m11, m12, m22 = self._models()
        k12 = self.rho * m12.covariance(theta)
        return np.array([[m11.covariance(theta), k12], [k12, m22.covariance(theta)]])


class BivariateNegativeBinomial(_BivariateFromScalars):
    """Two coupled geometric-sequence components with a scaled cross sequence."""

    def __init__(self, delta11: float, delta12: float, delta22: float, rho: float,
                 d: int = 2):
        self.delta11 = float(delta11)
        self.delta12 = float(delta12)
        self.delta22 = float(delta22)
        self.rho = float(rho)
        self.d = int(d)
        require_valid(self)

    def validate(self):
        out = []
        for name in ("delta11", "delta12", "delta22"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                out.append(f"{name} must lie in the open interval (0, 1), got {v}")
        if self.d < 1:
            out.append(f"sphere dimension must be >= 1, got {self.d}")
        if out:
            return out
        if self.delta12 > min(self.delta11, self.delta22):
            out.append(
                "delta12 must not exceed min(delta11, delta22): "
                f"{self.delta12} > {min(self.delta11, self.delta22)}"
            )
        bound = np.sqrt((1.0 - self.delta11) * (1.0 - self.delta22)) / (1.0 - self.delta12)
        if abs(self.rho) > bound:
            out.append(
                f"|rho| must not exceed sqrt((1-delta11)(1-delta22))/(1-delta12) "
                f"= {bound:.6g}, got {self.rho}"
            )
        return out

    def _models(self):
        return tuple(NegativeBinomial(delta, self.d)
                     for delta in (self.delta11, self.delta12, self.delta22))

    def describe(self) -> str:
        return (f"nb2(delta11={self.delta11:g}, delta12={self.delta12:g}, "
                f"delta22={self.delta22:g}, rho={self.rho:g}, d={self.d})")

    def decay(self):
        return ("geometric", max(self.delta11, self.delta22))


class BivariateSpectralMatern(_BivariateFromScalars):
    """Two coupled power-law components; cross sequence scaled by rho.

    The documented sufficient validity condition can be waived with
    allow_unverified_cross=True to reproduce published parameter sets that
    violate it; the per-degree semidefiniteness check still applies either
    way and will reject degrees where the waived parameters break down.
    """

    def __init__(self, alpha: float, nu11: float, nu12: float, nu22: float,
                 rho: float, d: int = 2, allow_unverified_cross: bool = False):
        self.alpha = float(alpha)
        self.nu11 = float(nu11)
        self.nu12 = float(nu12)
        self.nu22 = float(nu22)
        self.rho = float(rho)
        self.d = int(d)
        self.allow_unverified_cross = bool(allow_unverified_cross)
        require_valid(self)

    def validate(self):
        out = []
        if not self.alpha > 0.0:
            out.append(f"alpha must be positive, got {self.alpha}")
        out += _sm_nu_violations(self.d, nu11=self.nu11, nu12=self.nu12, nu22=self.nu22)
        if self.d < 1:
            out.append(f"sphere dimension must be >= 1, got {self.d}")
        if out or self.allow_unverified_cross:
            return out
        mean_nu = 0.5 * (self.nu11 + self.nu22)
        if self.nu12 < mean_nu:
            out.append(
                f"nu12 must be at least (nu11+nu22)/2 = {mean_nu}, got {self.nu12}"
            )
        bound = min(1.0, self.alpha ** (2.0 * self.nu12 - self.nu11 - self.nu22))
        if abs(self.rho) > bound:
            out.append(
                f"|rho| must not exceed min(1, alpha^(2 nu12 - nu11 - nu22)) "
                f"= {bound:.6g}, got {self.rho}"
            )
        return out

    def _models(self):
        return tuple(SpectralMatern(self.alpha, nu, self.d)
                     for nu in (self.nu11, self.nu12, self.nu22))

    def describe(self) -> str:
        return (f"sm2(alpha={self.alpha:g}, nu11={self.nu11:g}, nu12={self.nu12:g}, "
                f"nu22={self.nu22:g}, rho={self.rho:g}, d={self.d})")

    def decay(self):
        return ("poly", 2.0 * min(self.nu11, self.nu22) + 1.0)


class SequenceMultiCovariance(MultiCovariance):
    """p-variate model given by an explicit finite list of Schoenberg matrices."""

    def __init__(self, matrices, d: int):
        self.matrices = np.asarray(matrices, dtype=float)
        self.d = int(d)
        require_valid(self)

    @property
    def p(self) -> int:
        return self.matrices.shape[-1]

    def validate(self):
        out = []
        m = self.matrices
        if m.ndim != 3 or m.shape[1] != m.shape[2] or m.shape[0] == 0:
            out.append("matrices must be a nonempty stack of square matrices")
            return out
        if not np.all(np.isfinite(m)):
            out.append("matrix entries must be finite")
            return out
        symmetric = _symmetric(m)
        indefinite = symmetric & _indefinite(np.linalg.eigvalsh(m), m)
        out += [f"matrix at degree {n} is not "
                + ("positive semidefinite" if symmetric[n] else "symmetric")
                for n in np.flatnonzero(~symmetric | indefinite)]
        if self.d < 1:
            out.append(f"sphere dimension must be >= 1, got {self.d}")
        return out

    def _matrices(self, n):
        last = self.matrices.shape[0] - 1
        return np.where((n <= last)[..., None, None], self.matrices[np.minimum(n, last)], 0.0)

    def covariance(self, theta):
        """Shape (p, p) + theta.shape."""
        return _schoenberg_series(self.matrices, self.d, theta)

    def describe(self) -> str:
        return f"matrix-sequence(p={self.p}, degrees=0..{self.matrices.shape[0] - 1}, d={self.d})"

    def decay(self):
        nonzero = np.flatnonzero(self.matrices.any(axis=(1, 2)))
        return ("finite", int(nonzero[-1]) if nonzero.size else 0)


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------

@dataclass
class SchoenbergFactor:
    """Square-root factor of a Schoenberg matrix: matrix @ matrix.T == B."""

    degree: int
    matrix: np.ndarray

    def column(self, i: int) -> np.ndarray:
        return self.matrix[:, i]


def factor_schoenberg_matrix(B, *, degree: int = 0) -> SchoenbergFactor:
    """Cholesky factor when positive definite, symmetric eigen square root
    when only semidefinite; rejects indefinite input."""
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ModelError("factorization needs a square matrix")
    if not _symmetric(B):
        raise ModelError("factorization needs a symmetric matrix")
    try:
        gamma = np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(B)
        if _indefinite(w, B):
            raise ModelError(
                f"matrix at degree {degree} is not positive semidefinite: "
                f"min eigenvalue {w.min():g}"
            )
        gamma = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    recon_err = float(np.max(np.abs(gamma @ gamma.T - B)))
    if recon_err > _round_off(B):
        raise ModelError(f"factorization round-trip error {recon_err:g} too large")
    return SchoenbergFactor(degree=degree, matrix=gamma)
