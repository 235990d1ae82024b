"""Isotropic covariance model catalog for the d-sphere.

Each model supplies its Schoenberg coefficients (the nonnegative weights of
the Gegenbauer expansion of the covariance) plus, where available, a closed
form for the covariance itself.  Bivariate models supply 2x2 Schoenberg
matrices and their square-root factors.  All gamma/beta/Pochhammer arithmetic
is done in log space so that high sphere dimensions (lambda ~ 130) and high
degrees survive without overflow.
"""

import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import betaln, gammaln

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
    "validate",
    "require_valid",
    "schoenberg_coeff",
    "covariance_eval",
    "schoenberg_coeff_quadrature",
    "schoenberg_matrix",
    "factor_schoenberg_matrix",
    "chentsov_coeff_direct",
]

NUMERIC_ZERO = 1e-300
PSD_TOL = 1e-12


class ModelError(ValueError):
    """Invalid covariance model parameters or an indefinite Schoenberg matrix."""


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested tolerance."""


def _lam(d: int) -> float:
    return 0.5 * (d - 1)


# ---------------------------------------------------------------------------
# scalar models
# ---------------------------------------------------------------------------

class Covariance:
    """Base class for scalar isotropic covariance models on the d-sphere."""

    p = 1
    odd_support = False
    closed_form_covariance = True

    def validate(self) -> list[str]:
        raise NotImplementedError

    def log_schoenberg_coeff(self, n):
        """log b_n, vectorized over n; -inf where the coefficient is zero."""
        raise NotImplementedError

    def schoenberg_coeff(self, n):
        out = np.exp(self.log_schoenberg_coeff(n))
        return float(out) if np.isscalar(n) or np.ndim(n) == 0 else out

    def coeff_table(self, n_max: int) -> np.ndarray:
        return np.exp(self.log_schoenberg_coeff(np.arange(n_max + 1)))

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


def _check_theta(theta):
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < 0.0) or np.any(theta > np.pi):
        raise ValueError("geodesic angle must lie in [0, pi]")
    return theta


def _gegenbauer_series(coeffs: np.ndarray, d: int, theta: np.ndarray) -> np.ndarray:
    """sum_n c_n G_n^((d-1)/2)(cos theta), or sum_n c_n cos(n theta) on the
    circle; one term at a time, O(1) memory in n."""
    if d == 1:
        terms = (np.cos(n * theta) for n in range(len(coeffs)))
    else:
        terms = _recurrence(_lam(d), np.cos(theta))
    acc = np.zeros_like(theta)
    for c, g in zip(coeffs, terms):
        acc += c * g
    return acc


def _series_truncation(model: "Covariance", tol: float) -> int:
    """First N whose bound on sum_{n>N} b_n G_n(1) falls below tol."""
    kind, value = model.decay()
    if kind == "finite":
        return int(value)
    d = model.d
    if kind == "geometric":
        # terms ~ b_n G_n(1) <= C r^n n^(d-2); geometric ratio bound
        r = value
        n = max(64, int(np.ceil(np.log(tol) / np.log(r))) if r > 0 else 1)
    else:
        s = value - (d - 2)  # effective exponent of b_n G_n(1)
        if s <= 1.0:
            raise ModelError(
                "covariance series does not converge: coefficient decay "
                f"n^-{value:g} is too slow against G_n(1) growth on d={d}"
            )
        n = 64
    while True:
        term = model.schoenberg_coeff(n) * float(
            np.exp(gegenbauer_log_at_one(_lam(d), n)) if d >= 2 else 1.0
        )
        if kind == "geometric":
            q = value * (1.0 + 1.0 / n) ** max(d - 2, 0)
            bound = term * q / (1.0 - q) if q < 1.0 else np.inf
        else:
            s = value - (d - 2)
            bound = term * n / (s - 1.0)
        if bound < tol:
            return n
        n *= 2
        if n > 2**22:
            raise ModelError("covariance series truncation did not converge")


def _series_covariance(model: "Covariance", theta, tol: float = 1e-8):
    theta = _check_theta(theta)
    n = _series_truncation(model, tol)
    coeffs = model.coeff_table(n)
    scalar = theta.ndim == 0
    out = _gegenbauer_series(coeffs, model.d, np.atleast_1d(theta))
    return float(out[0]) if scalar else out


class NegativeBinomial(Covariance):
    """Geometric Schoenberg sequence b_n = (1-delta) delta^n.

    The closed covariance form follows from the Gegenbauer generating
    function; on the 2-sphere it is (1-delta)/sqrt(1+delta^2-2delta cos t).
    """

    def __init__(self, delta: float, d: int = 2):
        self.delta = float(delta)
        self.d = int(d)

    def validate(self):
        out = []
        if not 0.0 < self.delta < 1.0:
            out.append(f"delta must lie in the open interval (0, 1), got {self.delta}")
        if self.d < 1:
            out.append(f"sphere dimension must be >= 1, got {self.d}")
        return out

    def log_schoenberg_coeff(self, n):
        n = np.asarray(n, dtype=float)
        return np.log1p(-self.delta) + n * np.log(self.delta)

    def schoenberg_coeff(self, n):
        # direct product is exact where the log path rounds
        out = (1.0 - self.delta) * self.delta ** np.asarray(n, dtype=float)
        return float(out) if np.ndim(n) == 0 else out

    def coeff_table(self, n_max: int) -> np.ndarray:
        return self.schoenberg_coeff(np.arange(n_max + 1))

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


class SpectralMatern(Covariance):
    """Normalized power-law Schoenberg sequence (n^2+alpha^2)^(-nu-1/2)."""

    closed_form_covariance = False

    def __init__(self, alpha: float, nu: float, d: int = 2):
        self.alpha = float(alpha)
        self.nu = float(nu)
        self.d = int(d)

    def validate(self):
        out = []
        if not self.alpha > 0.0:
            out.append(f"alpha must be positive, got {self.alpha}")
        if not self.nu > 0.0:
            out.append(f"nu must be positive, got {self.nu}")
        if self.d < 1:
            out.append(f"sphere dimension must be >= 1, got {self.d}")
        return out

    def log_schoenberg_coeff(self, n):
        n = np.asarray(n, dtype=float)
        s = self.nu + 0.5
        return -s * np.log(n * n + self.alpha**2) - _sm_log_normalizer(self.alpha, self.nu)

    def covariance(self, theta):
        return _series_covariance(self, theta)

    def describe(self) -> str:
        return f"sm(alpha={self.alpha:g}, nu={self.nu:g}, d={self.d})"

    def decay(self):
        return ("poly", 2.0 * self.nu + 1.0)


class GeneralizedF(Covariance):
    """Beta/Pochhammer Schoenberg sequence with algebraic decay n^-(nu+1)."""

    closed_form_covariance = False

    def __init__(self, alpha: float, nu: float, tau: float, d: int = 2):
        self.alpha = float(alpha)
        self.nu = float(nu)
        self.tau = float(tau)
        self.d = int(d)

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

    def log_schoenberg_coeff(self, n):
        n = np.asarray(n, dtype=float)
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
        return _series_covariance(self, theta)

    def describe(self) -> str:
        return f"f(alpha={self.alpha:g}, nu={self.nu:g}, tau={self.tau:g}, d={self.d})"

    def decay(self):
        return ("poly", self.nu + 1.0)


def chentsov_coeff_direct(d: int, n: int) -> float:
    """Closed-form coefficient of the chordlike covariance 1 - 2t/pi.

    Zero at even degrees; at odd degrees a pure gamma quotient.  Kept separate
    from the induction used by the model so the two can cross-check each other.
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

    Coefficients are generated by the one-step induction from the degree-1
    seed, with the table cached and grown on demand.
    """

    odd_support = True

    def __init__(self, d: int = 2):
        self.d = int(d)
        self._lock = threading.Lock()
        self._log_odd = None  # log b_{2m+1} for m = 0..len-1

    def validate(self):
        out = []
        if self.d < 2:
            out.append(
                f"closed-form coefficients require sphere dimension >= 2, got {self.d}"
            )
        return out

    def _ensure_table(self, m_max: int):
        # rebuilt from the seed on every growth: cumsum prefixes do not depend
        # on the table length, so values never depend on the growth history
        with self._lock:
            if self._log_odd is None or m_max >= len(self._log_odd):
                lam = _lam(self.d)
                hi = max(m_max, 2 * len(self._log_odd) if self._log_odd is not None else 64)
                seed = (
                    gammaln(lam) + gammaln(lam + 2.0) - np.log(np.pi)
                    - 2.0 * gammaln(lam + 1.5)
                )
                m = np.arange(1, hi + 1, dtype=float)
                inc = (
                    np.log(lam + 2.0 * m + 1.0)
                    - np.log(lam + 2.0 * m - 1.0)
                    + 2.0 * np.log(m - 0.5)
                    - 2.0 * np.log(lam + m + 0.5)
                )
                self._log_odd = np.concatenate([[seed], seed + np.cumsum(inc)])
            return self._log_odd

    def log_schoenberg_coeff(self, n):
        if self.d < 2:
            raise ModelError("closed-form coefficients require sphere dimension >= 2")
        n_arr = np.atleast_1d(np.asarray(n, dtype=int))
        if n_arr.size == 0:
            return np.full(0, -np.inf)
        table = self._ensure_table(int(n_arr.max()) // 2)
        out = np.full(n_arr.shape, -np.inf)
        odd = n_arr % 2 == 1
        out[odd] = table[(n_arr[odd] - 1) // 2]
        return out[0] if np.ndim(n) == 0 else out

    def covariance(self, theta):
        theta = _check_theta(theta)
        return 1.0 - 2.0 * theta / np.pi

    def variance(self):
        return 1.0

    def describe(self) -> str:
        return f"chentsov(d={self.d})"

    def decay(self):
        return ("poly", float(self.d))


class Exponential(Covariance):
    """Covariance exp(-nu*theta); coefficients via squared-modulus gamma quotients.

    The |Gamma((m+i*nu)/2)|^2 factors are built by the two-step induction from
    the m=0 and m=1 seeds, in log space; the even/odd prefactors are written
    as (1 -+ exp(-pi*nu))/2 so that large nu cannot overflow.
    """

    def __init__(self, nu: float, d: int = 2):
        self.nu = float(nu)
        self.d = int(d)
        self._lock = threading.Lock()
        self._log_ag = None  # log |Gamma((m+i nu)/2)|^2 for m = 0..len-1

    def validate(self):
        out = []
        if not self.nu > 0.0:
            out.append(f"nu must be positive, got {self.nu}")
        if self.d < 2:
            out.append(
                f"closed-form coefficients require sphere dimension >= 2, got {self.d}"
            )
        return out

    def _ensure_ag(self, m_max: int) -> np.ndarray:
        # rebuilt from the two seeds on every growth so that values never
        # depend on the growth history (cumsum prefixes are length-invariant)
        with self._lock:
            if self._log_ag is None or m_max >= len(self._log_ag):
                nu = self.nu
                hi = max(m_max, 2 * len(self._log_ag) if self._log_ag is not None else 64)
                # sinh/cosh(pi*nu/2) written through exp(-pi*nu) to survive large nu
                seed_even = (
                    np.log(2.0 * np.pi) - np.log(nu)
                    - (0.5 * np.pi * nu + np.log1p(-np.exp(-np.pi * nu)) - np.log(2.0))
                )
                seed_odd = np.log(np.pi) - (
                    0.5 * np.pi * nu + np.log1p(np.exp(-np.pi * nu)) - np.log(2.0)
                )
                log_ag = np.empty(hi + 1)
                log_ag[0] = seed_even
                log_ag[1] = seed_odd
                for parity, seed in ((0, seed_even), (1, seed_odd)):
                    chain = np.arange(parity + 2, hi + 1, 2)
                    if chain.size:
                        inc = np.log(((chain - 2.0) ** 2 + nu * nu) / 4.0)
                        log_ag[chain] = seed + np.cumsum(inc)
                self._log_ag = log_ag
            return self._log_ag

    def log_schoenberg_coeff(self, n):
        if self.d < 2:
            raise ModelError("closed-form coefficients require sphere dimension >= 2")
        nu, d = self.nu, self.d
        lam = _lam(d)
        n_arr = np.atleast_1d(np.asarray(n, dtype=int))
        if n_arr.size == 0:
            return np.full(0, -np.inf)
        ag = self._ensure_ag(int(n_arr.max()) + d + 1)
        log_c_even = np.log(nu) + np.log1p(-np.exp(-np.pi * nu)) - np.log(4.0 * np.pi)
        log_c_odd = np.log(nu) + np.log1p(np.exp(-np.pi * nu)) - np.log(4.0 * np.pi)
        log_c = np.where(n_arr % 2 == 0, log_c_even, log_c_odd)
        out = (
            log_c
            + np.log(lam + n_arr)
            + gammaln(lam)
            + gammaln(lam + 1.0)
            + ag[n_arr]
            - ag[n_arr + d + 1]
        )
        return out[0] if np.ndim(n) == 0 else out

    def covariance(self, theta):
        theta = _check_theta(theta)
        return np.exp(-self.nu * theta)

    def variance(self):
        return 1.0

    def describe(self) -> str:
        return f"exponential(nu={self.nu:g}, d={self.d})"

    def decay(self):
        return ("poly", float(self.d))


class SequenceCovariance(Covariance):
    """Model given directly by a finite Schoenberg sequence."""

    def __init__(self, coeffs, d: int):
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.d = int(d)

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

    def log_schoenberg_coeff(self, n):
        n_arr = np.atleast_1d(np.asarray(n, dtype=int))
        out = np.full(n_arr.shape, -np.inf)
        inside = n_arr < self.coeffs.size
        with np.errstate(divide="ignore"):
            out[inside] = np.log(self.coeffs[n_arr[inside]])
        return out[0] if np.ndim(n) == 0 else out

    def covariance(self, theta):
        theta = _check_theta(theta)
        scalar = theta.ndim == 0
        out = _gegenbauer_series(self.coeffs, self.d, np.atleast_1d(theta))
        return float(out[0]) if scalar else out

    def describe(self) -> str:
        body = ",".join(f"{c:g}" for c in self.coeffs)
        return f"sequence([{body}], d={self.d})"

    def decay(self):
        nonzero = np.nonzero(self.coeffs)[0]
        return ("finite", int(nonzero[-1]))


# ---------------------------------------------------------------------------
# inversion-formula quadrature (the independent oracle for every closed form)
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _panel_integral(f, a: float, b: float, panels: int) -> float:
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    centers = edges[:-1] + half
    x = (centers[:, None] + half * _GL_NODES[None, :]).ravel()
    vals = f(x).reshape(panels, -1)
    return float(half * np.sum(vals @ _GL_WEIGHTS))


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

    panels = max(8, n + 4)
    prev = _panel_integral(integrand, 0.0, np.pi, panels) / norm
    err = np.inf
    for _ in range(8):
        panels *= 2
        cur = _panel_integral(integrand, 0.0, np.pi, panels) / norm
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
    """Base class for p-variate isotropic models (matrix Schoenberg sequence)."""

    odd_support = False
    closed_form_covariance = True

    def validate(self) -> list[str]:
        raise NotImplementedError

    def schoenberg_matrix(self, n: int) -> np.ndarray:
        B = self._matrix(n)
        _check_psd(B, context=f"Schoenberg matrix at degree {n}")
        return B

    def coeff_table(self, n_max: int) -> np.ndarray:
        return np.stack([self.schoenberg_matrix(n) for n in range(n_max + 1)])

    def magnitude_table(self, n_max: int) -> np.ndarray:
        """Largest absolute matrix entry per degree (support bookkeeping)."""
        return np.max(np.abs(np.stack([self._matrix(n) for n in range(n_max + 1)])),
                      axis=(1, 2))

    def covariance(self, theta):
        raise NotImplementedError

    def variance(self):
        return np.diag(self.covariance(0.0)).copy()


def _check_psd(B: np.ndarray, context: str) -> None:
    w = np.linalg.eigvalsh(B)
    tol = PSD_TOL * max(abs(float(np.trace(B))), NUMERIC_ZERO)
    if w.min() < -tol:
        raise ModelError(
            f"{context} is not positive semidefinite: min eigenvalue {w.min():g}"
        )


class BivariateNegativeBinomial(MultiCovariance):
    """Two coupled geometric-sequence components with a scaled cross sequence."""

    p = 2

    def __init__(self, delta11: float, delta12: float, delta22: float, rho: float,
                 d: int = 2):
        self.delta11 = float(delta11)
        self.delta12 = float(delta12)
        self.delta22 = float(delta22)
        self.rho = float(rho)
        self.d = int(d)

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

    def component(self, i: int) -> NegativeBinomial:
        return NegativeBinomial([self.delta11, self.delta22][i], d=self.d)

    def _matrix(self, n: int) -> np.ndarray:
        b11 = NegativeBinomial(self.delta11, self.d).schoenberg_coeff(n)
        b22 = NegativeBinomial(self.delta22, self.d).schoenberg_coeff(n)
        b12 = self.rho * NegativeBinomial(self.delta12, self.d).schoenberg_coeff(n)
        return np.array([[b11, b12], [b12, b22]])

    def covariance(self, theta):
        k11 = NegativeBinomial(self.delta11, self.d).covariance(theta)
        k22 = NegativeBinomial(self.delta22, self.d).covariance(theta)
        k12 = self.rho * NegativeBinomial(self.delta12, self.d).covariance(theta)
        return np.array([[k11, k12], [k12, k22]])

    def magnitude_table(self, n_max: int) -> np.ndarray:
        tables = [
            NegativeBinomial(self.delta11, self.d).coeff_table(n_max),
            NegativeBinomial(self.delta22, self.d).coeff_table(n_max),
            abs(self.rho) * NegativeBinomial(self.delta12, self.d).coeff_table(n_max),
        ]
        return np.max(tables, axis=0)

    def describe(self) -> str:
        return (f"nb2(delta11={self.delta11:g}, delta12={self.delta12:g}, "
                f"delta22={self.delta22:g}, rho={self.rho:g}, d={self.d})")

    def decay(self):
        return ("geometric", max(self.delta11, self.delta22))


class BivariateSpectralMatern(MultiCovariance):
    """Two coupled power-law components; cross sequence scaled by rho.

    The documented sufficient validity condition can be waived with
    allow_unverified_cross=True to reproduce published parameter sets that
    violate it; the per-degree semidefiniteness check still applies either
    way and will reject degrees where the waived parameters break down.
    """

    p = 2
    closed_form_covariance = False

    def __init__(self, alpha: float, nu11: float, nu12: float, nu22: float,
                 rho: float, d: int = 2, allow_unverified_cross: bool = False):
        self.alpha = float(alpha)
        self.nu11 = float(nu11)
        self.nu12 = float(nu12)
        self.nu22 = float(nu22)
        self.rho = float(rho)
        self.d = int(d)
        self.allow_unverified_cross = bool(allow_unverified_cross)

    def validate(self):
        out = []
        if not self.alpha > 0.0:
            out.append(f"alpha must be positive, got {self.alpha}")
        for name in ("nu11", "nu12", "nu22"):
            v = getattr(self, name)
            if not v > 0.0:
                out.append(f"{name} must be positive, got {v}")
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

    def component(self, i: int) -> SpectralMatern:
        return SpectralMatern(self.alpha, [self.nu11, self.nu22][i], d=self.d)

    def _matrix(self, n: int) -> np.ndarray:
        b11 = SpectralMatern(self.alpha, self.nu11, self.d).schoenberg_coeff(n)
        b22 = SpectralMatern(self.alpha, self.nu22, self.d).schoenberg_coeff(n)
        b12 = self.rho * SpectralMatern(self.alpha, self.nu12, self.d).schoenberg_coeff(n)
        return np.array([[b11, b12], [b12, b22]])

    def covariance(self, theta):
        k11 = SpectralMatern(self.alpha, self.nu11, self.d).covariance(theta)
        k22 = SpectralMatern(self.alpha, self.nu22, self.d).covariance(theta)
        k12 = self.rho * SpectralMatern(self.alpha, self.nu12, self.d).covariance(theta)
        return np.array([[k11, k12], [k12, k22]])

    def magnitude_table(self, n_max: int) -> np.ndarray:
        tables = [
            SpectralMatern(self.alpha, self.nu11, self.d).coeff_table(n_max),
            SpectralMatern(self.alpha, self.nu22, self.d).coeff_table(n_max),
            abs(self.rho) * SpectralMatern(self.alpha, self.nu12, self.d).coeff_table(n_max),
        ]
        return np.max(tables, axis=0)

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
        for n, B in enumerate(m):
            if not np.allclose(B, B.T, atol=1e-12):
                out.append(f"matrix at degree {n} is not symmetric")
                continue
            w = np.linalg.eigvalsh(B)
            if w.min() < -PSD_TOL * max(abs(float(np.trace(B))), NUMERIC_ZERO):
                out.append(f"matrix at degree {n} is not positive semidefinite")
        if self.d < 1:
            out.append(f"sphere dimension must be >= 1, got {self.d}")
        return out

    def _matrix(self, n: int) -> np.ndarray:
        if n < self.matrices.shape[0]:
            return self.matrices[n].copy()
        return np.zeros((self.p, self.p))

    def covariance(self, theta):
        theta = np.atleast_1d(_check_theta(theta))
        p = self.p
        out = np.empty((p, p) + theta.shape)
        for i in range(p):
            for j in range(p):
                out[i, j] = _gegenbauer_series(self.matrices[:, i, j], self.d, theta)
        return out[..., 0] if out.shape[-1] == 1 else out

    def describe(self) -> str:
        return f"matrix-sequence(p={self.p}, degrees=0..{self.matrices.shape[0] - 1}, d={self.d})"

    def decay(self):
        nonzero = [n for n, B in enumerate(self.matrices) if np.any(B != 0.0)]
        return ("finite", nonzero[-1] if nonzero else 0)


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
    if not np.allclose(B, B.T, atol=1e-12 * max(1.0, float(np.max(np.abs(B))))):
        raise ModelError("factorization needs a symmetric matrix")
    try:
        gamma = np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(B)
        tol = PSD_TOL * max(abs(float(np.trace(B))), NUMERIC_ZERO)
        if w.min() < -tol:
            raise ModelError(
                f"matrix at degree {degree} is not positive semidefinite: "
                f"min eigenvalue {w.min():g}"
            )
        gamma = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    recon_err = float(np.max(np.abs(gamma @ gamma.T - B)))
    if recon_err > 1e-12 * max(1.0, float(np.max(np.abs(B)))):
        raise ModelError(f"factorization round-trip error {recon_err:g} too large")
    return SchoenbergFactor(degree=degree, matrix=gamma)


# ---------------------------------------------------------------------------
# module-level operation wrappers
# ---------------------------------------------------------------------------

def validate(spec) -> list[str]:
    """List of violated constraints; empty when the model is valid."""
    return spec.validate()


def require_valid(spec) -> None:
    violations = spec.validate()
    if violations:
        raise ModelError("; ".join(violations))


def schoenberg_coeff(spec: Covariance, n: int) -> float:
    require_valid(spec)
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return spec.schoenberg_coeff(n)


def covariance_eval(spec: Covariance, theta):
    require_valid(spec)
    return spec.covariance(theta)


def schoenberg_matrix(mspec: MultiCovariance, n: int) -> np.ndarray:
    require_valid(mspec)
    return mspec.schoenberg_matrix(n)
