import tracemalloc

import turnarcs.covariance as covariance

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import beta as beta_fn
from scipy.special import eval_gegenbauer, gammaln

from turnarcs.covariance import (
    BivariateNegativeBinomial,
    BivariateSpectralMatern,
    Chentsov,
    Exponential,
    GeneralizedF,
    ModelError,
    NegativeBinomial,
    SequenceCovariance,
    SequenceMultiCovariance,
    SpectralMatern,
    _STIRLING_MIN,
    _log_gamma_shift,
    chentsov_coeff_direct,
    factor_schoenberg_matrix,
    schoenberg_coeff_quadrature,
)
from turnarcs.gegenbauer import gegenbauer_eval_table


# ------------------------------------------------------------------ validate

def test_validate_bivariate_nb_published_parameters():
    spec = BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6)
    assert spec.validate() == []
    # the rho bound here is sqrt(0.8*0.3)/0.8 ~ 0.612
    with pytest.raises(ModelError, match="rho"):
        BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.62)


def test_validate_nb_boundary():
    with pytest.raises(ModelError, match=r"^delta must lie in the open interval \(0, 1\), got 1.0$"):
        NegativeBinomial(1.0)


def test_validate_bivariate_sm_cross_condition():
    # nu12 = nu22 = 0.75 with nu11 = 2 violates nu12 >= (nu11+nu22)/2 = 1.375
    with pytest.raises(ModelError, match="nu12"):
        BivariateSpectralMatern(1.0, 2.0, 0.75, 0.75, rho=-0.6)
    waived = BivariateSpectralMatern(
        1.0, 2.0, 0.75, 0.75, rho=-0.6, allow_unverified_cross=True
    )
    assert waived.validate() == []


def test_validate_f_needs_nu_above_d_minus_2():
    assert GeneralizedF(1.0, 3.5, 2.0, d=3).validate() == []
    with pytest.raises(ModelError, match="d-2"):
        GeneralizedF(1.0, 0.5, 2.0, d=3)


def test_sm_needs_nu_above_half_d_minus_2():
    # b_n G_n(1) ~ n^-(2 nu + 3 - d): at nu <= (d-2)/2 the variance series
    # diverges, and the model used to be built and simulated anyway
    assert SpectralMatern(1.0, 0.51, d=3).validate() == []
    for nu, d in ((0.25, 3), (0.5, 3), (1.0, 4)):
        with pytest.raises(ModelError) as caught:
            SpectralMatern(1.0, nu, d=d)
        assert str(caught.value) == (f"nu must exceed (d-2)/2 = {0.5 * (d - 2):g} for the "
                                     f"coefficient series to converge, got nu = {nu}")


@pytest.mark.parametrize("waived", [False, True])
@pytest.mark.parametrize("name", ["nu11", "nu12", "nu22"])
@pytest.mark.parametrize("nu", [0.5, 0.3])
def test_bivariate_sm_needs_each_nu_above_half_d_minus_2(name, nu, waived):
    nus = {"nu11": 2.0, "nu12": 2.0, "nu22": 2.0, name: nu}
    with pytest.raises(ModelError) as caught:
        BivariateSpectralMatern(1.0, nus["nu11"], nus["nu12"], nus["nu22"], rho=0.1, d=3,
                                allow_unverified_cross=waived)
    assert (f"{name} must exceed (d-2)/2 = 0.5 for the coefficient series to converge, "
            f"got {name} = {nu}") in str(caught.value).split("; ")


INVALID = [
    (NegativeBinomial, (1.5,), {"d": 0},
     "delta must lie in the open interval (0, 1), got 1.5; sphere dimension must be >= 1, got 0"),
    (SpectralMatern, (0.0, -1.0), {},
     "alpha must be positive, got 0.0; nu must be positive, got -1.0"),
    (GeneralizedF, (1.0, 2.0, 0.0), {"d": 5},
     "tau must be positive, got 0.0; nu must exceed d-2 = 3 for the coefficient series "
     "to converge, got nu = 2.0"),
    (Chentsov, (), {"d": 1}, "closed-form coefficients require sphere dimension >= 2, got 1"),
    (Exponential, (0.0,), {"d": 1},
     "nu must be positive, got 0.0; closed-form coefficients require sphere dimension >= 2, got 1"),
    (SequenceCovariance, ([0.0, -0.5],), {"d": 2},
     "coefficients must be nonnegative; at least one coefficient must be positive"),
    (BivariateNegativeBinomial, (0.2, 1.0, 0.0), {"rho": 0.5},
     "delta12 must lie in the open interval (0, 1), got 1.0; "
     "delta22 must lie in the open interval (0, 1), got 0.0"),
    (BivariateSpectralMatern, (1.0, 2.0, 0.75, 0.75), {"rho": -0.6},
     "nu12 must be at least (nu11+nu22)/2 = 1.375, got 0.75"),
    (SequenceMultiCovariance, ([np.eye(2), [[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.5], [0.0, 1.0]]],),
     {"d": 2}, "matrix at degree 1 is not positive semidefinite; matrix at degree 2 is not symmetric"),
    # 1e-7 off symmetric, within numpy's default rtol of 1e-5: the one
    # symmetry rule (1e-12 of the scale, the factor round-trip tolerance)
    # names the degree here, where a factor's round trip named none
    (SequenceMultiCovariance, ([[[1, .3], [.3 + 1e-7, 1]], [[.5, .1], [.1, .5]]],), {"d": 2},
     "matrix at degree 0 is not symmetric"),
]


# the constraints the cases above leave unchecked, by id
MORE_INVALID = {
    "SpectralMatern-d": (SpectralMatern, (1.0, 1.0), {"d": 0},
                         "sphere dimension must be >= 1, got 0"),
    "GeneralizedF-alpha-nu-d": (GeneralizedF, (0.0, -1.0, 1.0), {"d": 0},
                                "alpha must be positive, got 0.0; nu must be positive, got -1.0; "
                                "sphere dimension must be >= 1, got 0"),
    "SequenceCovariance-empty": (SequenceCovariance, ([],), {"d": 2},
                                 "coefficient sequence must be a nonempty vector"),
    "SequenceCovariance-nan-d": (SequenceCovariance, ([1.0, np.nan],), {"d": 0},
                                 "coefficients must be finite; sphere dimension must be >= 1, "
                                 "got 0"),
    "BivariateNegativeBinomial-d": (BivariateNegativeBinomial, (0.2, 0.2, 0.7),
                                    {"rho": 0.1, "d": 0}, "sphere dimension must be >= 1, got 0"),
    "BivariateNegativeBinomial-delta12": (BivariateNegativeBinomial, (0.2, 0.3, 0.7),
                                          {"rho": 0.1},
                                          "delta12 must not exceed min(delta11, delta22): "
                                          "0.3 > 0.2"),
    "BivariateSpectralMatern-alpha-d": (BivariateSpectralMatern, (0.0, 2.0, 2.0, 2.0),
                                        {"rho": 0.1, "d": 0},
                                        "alpha must be positive, got 0.0; "
                                        "sphere dimension must be >= 1, got 0"),
    "BivariateSpectralMatern-rho": (BivariateSpectralMatern, (0.5, 1.0, 1.5, 1.0),
                                    {"rho": 0.6},
                                    "|rho| must not exceed min(1, alpha^(2 nu12 - nu11 - nu22)) "
                                    "= 0.5, got 0.6"),
    "SequenceMultiCovariance-empty": (SequenceMultiCovariance, (np.zeros((0, 2, 2)),), {"d": 2},
                                      "matrices must be a nonempty stack of square matrices"),
    "SequenceMultiCovariance-nan": (SequenceMultiCovariance, ([[[1.0, np.nan], [np.nan, 1.0]]],),
                                    {"d": 2}, "matrix entries must be finite"),
    "SequenceMultiCovariance-d": (SequenceMultiCovariance, ([np.eye(2)],), {"d": 0},
                                  "sphere dimension must be >= 1, got 0"),
}


@pytest.mark.parametrize("make, args, kwargs, message", INVALID + list(MORE_INVALID.values()),
                         ids=[make.__name__ for make, *_ in INVALID] + list(MORE_INVALID))
def test_constructor_raises_every_violation(make, args, kwargs, message):
    # a catalog model checks itself when built: the error joins every
    # constraint its validate() list names
    with pytest.raises(ModelError) as caught:
        make(*args, **kwargs)
    assert str(caught.value) == message



# ------------------------------------------------------- scalar coefficients

def test_nb_coefficient():
    assert NegativeBinomial(0.5, d=2).schoenberg_coeff(0) == pytest.approx(0.5)
    assert NegativeBinomial(0.5, d=2).schoenberg_coeff(3) == pytest.approx(0.0625)


def test_f_coefficients_against_beta_oracle():
    spec = GeneralizedF(1.0, 3.5, 2.0, d=3)
    b0 = beta_fn(1.0, 5.5) / beta_fn(1.0, 3.5)
    assert spec.schoenberg_coeff(0) == pytest.approx(b0, rel=1e-13)
    assert spec.schoenberg_coeff(0) == pytest.approx(7.0 / 11.0, rel=1e-12)
    # b1 = b0 * (alpha)_1 (tau)_1 / ((alpha+nu+tau)_1 1!)
    assert spec.schoenberg_coeff(1) == pytest.approx(b0 * 1.0 * 2.0 / 6.5, rel=1e-13)
    assert spec.schoenberg_coeff(1) == pytest.approx(28.0 / 143.0, rel=1e-12)


def test_chentsov_coefficients():
    spec = Chentsov(d=2)
    assert spec.schoenberg_coeff(1) == pytest.approx(0.75, rel=1e-13)
    assert spec.schoenberg_coeff(3) == pytest.approx(7.0 / 64.0, rel=1e-13)
    assert spec.schoenberg_coeff(0) == 0.0
    assert spec.schoenberg_coeff(2) == 0.0
    assert spec.schoenberg_coeff(10) == 0.0


def test_exponential_coefficient_against_analytic_integral():
    # (1/||G_0||^2) int_0^pi exp(-t) sin(t) dt = (1 + exp(-pi))/4
    expected = (1.0 + np.exp(-np.pi)) / 4.0
    assert Exponential(1.0, d=2).schoenberg_coeff(0) == pytest.approx(expected, rel=1e-12)


def test_sm_coefficient_against_analytic_sum():
    # sum_k 1/(k^2+1) = (1 + pi*coth(pi))/2
    total = 0.5 * (1.0 + np.pi / np.tanh(np.pi))
    assert SpectralMatern(1.0, 0.5, d=2).schoenberg_coeff(0) == pytest.approx(
        1.0 / total, rel=1e-11
    )


def test_coeff_table_matches_scalar_calls():
    for spec in (
        NegativeBinomial(0.3),
        SpectralMatern(1.0, 0.75),
        GeneralizedF(1.0, 3.5, 2.0, d=3),
        Chentsov(d=3),
        Exponential(0.5, d=5),
    ):
        table = spec.coeff_table(40)
        singles = np.array([spec.schoenberg_coeff(n) for n in range(41)])
        assert_allclose(table, singles, rtol=1e-13, atol=0)


# --------------------------------------------------------- covariance values

def test_nb_covariance_closed_form():
    spec = NegativeBinomial(0.5, d=2)
    assert spec.covariance(0.0) == pytest.approx(1.0)
    assert spec.covariance(np.pi) == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_chentsov_covariance():
    assert Chentsov(d=2).covariance(np.pi / 2) == pytest.approx(0.0, abs=1e-15)


def test_exponential_covariance():
    assert Exponential(2.0, d=2).covariance(1.0) == pytest.approx(np.exp(-2.0))


def test_covariance_domain():
    with pytest.raises(ValueError):
        NegativeBinomial(0.5).covariance(-0.1)
    with pytest.raises(ValueError):
        NegativeBinomial(0.5).covariance(np.pi + 0.1)


def test_sm_series_covariance_at_zero_is_normalized():
    assert SpectralMatern(1.0, 0.75, d=2).covariance(0.0) == pytest.approx(1.0, abs=2e-8)


@pytest.mark.parametrize("delta", [0.1, 0.5, 0.9])
def test_nb_circle_covariance_matches_its_coefficient_series(delta):
    # the closed form on the circle against sum_{n<=N} (1-delta) delta^n
    # cos(n theta), whose tail is at most delta^(N+1)
    spec = NegativeBinomial(delta, d=1)
    theta = np.linspace(0.0, np.pi, 41)
    n_max = 60
    series = covariance._schoenberg_series(spec.coeff_table(n_max), 1, theta)
    assert_allclose(spec.covariance(theta), series, rtol=0.0,
                    atol=delta ** (n_max + 1) + 1e-14)


def test_sequence_covariance_cosine_series():
    spec = SequenceCovariance([0.6, 0.3, 0.1], d=1)
    theta = np.linspace(0, np.pi, 7)
    expected = 0.6 + 0.3 * np.cos(theta) + 0.1 * np.cos(2 * theta)
    assert_allclose(spec.covariance(theta), expected, atol=1e-14)


# ----------------------------------------------------------------- quadrature

@pytest.mark.parametrize("n, d, message", [
    (2, 1, "quadrature inversion requires sphere dimension >= 2"),
    (-1, 2, "degree must be nonnegative"),
])
def test_quadrature_rejects_the_circle_and_negative_degrees(n, d, message):
    with pytest.raises(ValueError) as caught:
        schoenberg_coeff_quadrature(lambda theta: np.cos(theta), n, d)
    assert str(caught.value) == message


def test_chentsov_direct_needs_d_2_and_vanishes_at_even_degrees():
    with pytest.raises(ModelError) as caught:
        chentsov_coeff_direct(1, 3)
    assert str(caught.value) == "closed-form coefficients require sphere dimension >= 2"
    assert chentsov_coeff_direct(3, 4) == 0.0


def test_quadrature_recovers_nb_closed_form():
    spec = NegativeBinomial(0.3, d=2)
    got = schoenberg_coeff_quadrature(spec.covariance, 2, 2)
    assert got == pytest.approx(0.7 * 0.09, abs=1e-11)


def test_quadrature_constant_function():
    K = lambda theta: np.ones_like(theta)
    assert schoenberg_coeff_quadrature(K, 0, 3) == pytest.approx(1.0, abs=1e-11)
    for n in (1, 2, 5):
        assert schoenberg_coeff_quadrature(K, n, 3) == pytest.approx(0.0, abs=1e-11)


def test_quadrature_chentsov_even_degree_vanishes():
    spec = Chentsov(d=2)
    assert schoenberg_coeff_quadrature(spec.covariance, 2, 2) == pytest.approx(0.0, abs=1e-11)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("n", [0, 1, 3, 8, 21])
def test_chentsov_closed_form_vs_quadrature(d, n):
    spec = Chentsov(d=d)
    closed = spec.schoenberg_coeff(n)
    tol = max(1e-16, 1e-9 * closed)
    got = schoenberg_coeff_quadrature(spec.covariance, n, d, abs_tol=tol)
    if n % 2 == 0:
        assert closed == 0.0
        assert got == pytest.approx(0.0, abs=1e-11)
    else:
        assert got == pytest.approx(closed, rel=1e-8)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 16])
def test_exponential_closed_form_vs_quadrature(d, n):
    spec = Exponential(1.0, d=d)
    closed = spec.schoenberg_coeff(n)
    got = schoenberg_coeff_quadrature(spec.covariance, n, d, abs_tol=max(1e-16, 1e-8 * closed))
    assert got == pytest.approx(closed, rel=1e-6)


# ----------------------------------------------------------------- invariants

@pytest.mark.parametrize(
    "spec",
    [
        NegativeBinomial(0.2),
        NegativeBinomial(0.9),
        SpectralMatern(1.0, 0.75),
        SpectralMatern(2.5, 2.0),
        GeneralizedF(1.0, 3.5, 2.0, d=3),
        GeneralizedF(0.7, 2.0, 0.5, d=2),
        Chentsov(d=2),
        Chentsov(d=8),
        Exponential(1.0, d=2),
        Exponential(4.0, d=3),
    ],
)
def test_coefficients_nonnegative(spec):
    table = spec.coeff_table(200)
    assert np.all(table >= 0.0)
    assert np.all(np.isfinite(table))


def test_nb_partial_sum_normalization():
    table = NegativeBinomial(0.5, d=2).coeff_table(200)
    assert abs(table.sum() - 1.0) < 1e-50


def test_exponential_partial_sum_normalization():
    # coefficients fall like n^-2 on the 2-sphere, so ~2e6 terms give 1e-6
    table = Exponential(1.0, d=2).coeff_table(2**21)
    assert abs(table.sum() - 1.0) < 1e-6


def test_chentsov_induction_matches_direct():
    for d in (2, 3, 8):
        spec = Chentsov(d=d)
        for k in range(101):
            n = 2 * k + 1
            direct = chentsov_coeff_direct(d, n)
            assert spec.schoenberg_coeff(n) == pytest.approx(direct, rel=1e-12)


def test_chentsov_induction_matches_direct_high_dimension():
    # values underflow doubles at d=256, so compare in log space
    d = 256
    lam = 0.5 * (d - 1)
    spec = Chentsov(d=d)
    k = np.arange(101)
    direct_log = (
        np.log(lam + 2.0 * k + 1.0)
        + gammaln(lam) + gammaln(lam + 1.0)
        - 2.0 * np.log(np.pi)
        + 2.0 * gammaln(k + 0.5)
        - 2.0 * gammaln(lam + k + 1.5)
    )
    got = spec.log_schoenberg_coeff(2 * k + 1)
    assert np.max(np.abs(got - direct_log) / np.abs(direct_log)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 256), k=st.one_of(st.integers(0, 100), st.integers(0, 10**6)))
@example(d=2, k=10**6)
@example(d=128, k=10**6)
@example(d=256, k=10**6)
@example(d=8, k=0)
def test_chentsov_against_mpmath_log_gamma(d, k):
    # log b_n at n = 2k + 1 within a few ulp of its largest term, the
    # differenced gamma pair of size ~2 (lam+1) log k: the closed form was at
    # most 9.1e-13 off on d <= 256, n <= 2e6 + 1; the old induction, a
    # cumulative sum of 1e6 increments, up to 9.5e-11
    lam = 0.5 * (d - 1)
    scale = gammaln(lam) + gammaln(lam + 1.0) + 2.0 * (lam + 1.0) * np.log(k + lam + 2.0) + 10.0
    got = Chentsov(d=d).log_schoenberg_coeff(2 * k + 1)
    assert got == pytest.approx(chentsov_log_coeff_mpmath(d, k), rel=0.0,
                                abs=4.0 * np.finfo(float).eps * scale)


def chentsov_log_coeff_mpmath(d, k):
    """log b_{2k+1} of Chentsov's model at 40 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        lam = mp.mpf(d - 1) / 2
        return float(mp.log(lam + 2 * k + 1) + mp.loggamma(lam) + mp.loggamma(lam + 1)
                     - 2 * mp.log(mp.pi) + 2 * mp.loggamma(k + mp.mpf(1) / 2)
                     - 2 * mp.loggamma(lam + k + mp.mpf(3) / 2))


def test_chentsov_coefficient_of_a_huge_degree_takes_constant_memory():
    # the induction allocated one entry per odd degree below n (4 TB here)
    k = 2**39
    tracemalloc.start()
    try:
        got = Chentsov(d=3).log_schoenberg_coeff(np.array([2 * k + 1, 2 * k]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert got[1] == -np.inf
    assert got[0] == pytest.approx(chentsov_log_coeff_mpmath(3, k), rel=1e-14)


def test_chentsov_takes_gamma_terms_at_odd_degrees_only(monkeypatch):
    # an even degree's coefficient is zero, so no gamma difference is taken
    # there: a support check under an odd law asks for 5,000 even degrees
    seen = []
    shift = covariance._log_gamma_shift

    def recording(z, s):
        seen.append(np.array(z, dtype=float))
        return shift(z, s)

    monkeypatch.setattr(covariance, "_log_gamma_shift", recording)
    assert np.all(Chentsov(d=3).log_schoenberg_coeff(np.arange(0, 10_000, 2)) == -np.inf)
    got = Chentsov(d=5).log_schoenberg_coeff(np.arange(41))
    # the argument at degree n = 2k + 1 is k + 1/2 = n / 2
    assert_array_equal(2.0 * np.concatenate(seen), np.arange(1, 41, 2))
    assert np.all(got[::2] == -np.inf) and np.all(np.isfinite(got[1::2]))


@pytest.mark.parametrize(
    "make", [lambda: Chentsov(d=3), lambda: Exponential(1.3, d=3)]
)
def test_induction_tables_are_history_independent(make):
    # a coefficient must not depend on the other degrees requested with it
    # or before it, or reusing a model instance would break bit reproducibility
    grown = make()
    values = [grown.schoenberg_coeff(n) for n in (3, 157, 7, 0)]
    fresh = make().coeff_table(157)
    for n, v in zip((3, 157, 7, 0), values):
        assert v == fresh[n]


def test_nb_generating_function_identity():
    spec = NegativeBinomial(0.5, d=2)
    theta = np.linspace(0.0, np.pi, 100)
    table = gegenbauer_eval_table(0.5, 400, np.cos(theta))
    series = spec.coeff_table(400) @ table
    assert_allclose(series, spec.covariance(theta), atol=1e-10)


def test_exponential_against_high_precision_gamma():
    # independent oracle: the complex-gamma quotient evaluated at 40 digits
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    for d in (2, 3, 5):
        for nu in (0.5, 1.0, 4.0):
            model = Exponential(nu, d=d)
            lam = mp.mpf(d - 1) / 2
            for n in (0, 1, 2, 7, 20, 50):
                hyper = mp.sinh if n % 2 == 0 else mp.cosh
                C = nu * mp.e ** (-mp.pi * nu / 2) * hyper(mp.pi * nu / 2) / (2 * mp.pi)
                z = mp.mpc(n, nu) / 2
                ref = float(
                    C * (lam + n) * mp.gamma(lam) * mp.gamma(lam + 1)
                    * abs(mp.gamma(z)) ** 2 / abs(mp.gamma(lam + 1 + z)) ** 2
                )
                assert model.schoenberg_coeff(n) == pytest.approx(ref, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(nu=st.floats(0.05, 200.0), d=st.integers(2, 256), n=st.integers(0, 200_000))
@example(nu=1.0, d=2, n=200_000)
@example(nu=200.0, d=256, n=199_999)
@example(nu=0.05, d=3, n=0)
def test_exponential_against_mpmath_log_gamma(nu, d, n):
    # compared in log space, where high d does not underflow: an absolute
    # error e in log b_n is a relative error e in b_n.  The difference of two
    # loggamma values of ~1.1e6 at n = 2e5 was up to ~1.1e-9 off; the
    # Stirling-difference form was at most 9.1e-13 off over 9k random draws
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        lam = mp.mpf(d - 1) / 2
        half = mp.pi * mp.mpf(nu) / 2
        hyper = mp.sinh if n % 2 == 0 else mp.cosh
        z = mp.mpc(n, nu) / 2
        ref = (
            mp.log(nu) - half + mp.log(hyper(half)) - mp.log(2 * mp.pi)
            + mp.log(lam + n) + mp.loggamma(lam) + mp.loggamma(lam + 1)
            + 2 * mp.re(mp.loggamma(z)) - 2 * mp.re(mp.loggamma(lam + 1 + z))
        )
    got = Exponential(nu, d=d).log_schoenberg_coeff(n)
    assert got == pytest.approx(float(ref), rel=0.0, abs=1e-11)


@settings(max_examples=60, deadline=None)
@given(r=st.floats(16.0, 64.0), angle=st.floats(0.0, np.pi / 2), d=st.integers(2, 256))
@example(r=_STIRLING_MIN, angle=np.pi / 2, d=256)
@example(r=_STIRLING_MIN, angle=0.0, d=2)
@example(r=np.nextafter(_STIRLING_MIN, 0.0), angle=np.pi / 4, d=3)
def test_log_gamma_shift_on_both_sides_of_the_switch_over(r, angle, d):
    # loggamma below _STIRLING_MIN, the Stirling difference from it on: both
    # forms must hold near the switch-over, where the series is shortest
    mp = pytest.importorskip("mpmath")
    z = complex(r * np.cos(angle), r * np.sin(angle))
    s = 0.5 * (d + 1)
    with mp.workdps(40):
        zm = mp.mpc(z.real, z.imag)
        ref = mp.re(mp.loggamma(zm + s) - mp.loggamma(zm))
    assert float(_log_gamma_shift(z, s)) == pytest.approx(float(ref), rel=0.0, abs=2e-12)


def test_chentsov_series_reconstructs_covariance():
    # with enough odd-degree terms the expansion must return 1 - 2 theta/pi
    # on every sphere dimension
    theta = np.array([0.3, 0.8, 2.0])
    for d in (2, 5):
        model = Chentsov(d=d)
        coeffs = model.coeff_table(4001)
        table = gegenbauer_eval_table(0.5 * (d - 1), 4001, np.cos(theta))
        series = coeffs @ table
        assert_allclose(series, 1.0 - 2.0 * theta / np.pi, atol=1e-6)


SERIES_DIMS = st.sampled_from([2, 3, 5])
CLOSED_FORM_MODELS = st.one_of(
    st.builds(NegativeBinomial, st.floats(0.01, 0.95), d=SERIES_DIMS),
    st.builds(Chentsov, d=SERIES_DIMS),
    st.builds(Exponential, st.floats(0.05, 20.0), d=SERIES_DIMS),
)


@settings(max_examples=80, deadline=None)
@given(model=CLOSED_FORM_MODELS, theta=st.floats(0.0, np.pi))
@example(model=Chentsov(d=5), theta=np.pi)
@example(model=NegativeBinomial(0.95, d=5), theta=0.0)
@example(model=Exponential(20.0, d=2), theta=1e-3)
def test_closed_form_covariance_within_series_tail(model, theta):
    # C(theta) = sum_n b_n G_n(cos theta) with b_n >= 0 and |G_n(t)| <= G_n(1),
    # so the first N + 1 terms miss the closed form by at most the tail mass
    # C(0) - sum_{n <= N} b_n G_n(1) (1 - sum b_n for a unit-variance model
    # written with normalized G_n/G_n(1)); Gegenbauer values from scipy
    n_max = 1000
    n = np.arange(n_max + 1)
    lam = 0.5 * (model.d - 1)
    b = model.coeff_table(n_max)
    assert np.all(b >= 0.0)
    variance = float(model.covariance(0.0))
    tail = variance - b @ eval_gegenbauer(n, lam, 1.0)
    series = b @ eval_gegenbauer(n, lam, np.cos(theta))
    assert abs(float(model.covariance(theta)) - series) <= max(tail, 0.0) + 1e-12 * variance


CATALOG = [
    NegativeBinomial(0.5),
    SpectralMatern(1.0, 0.75),
    GeneralizedF(1.0, 3.5, 2.0, d=3),
    Chentsov(d=2),
    Exponential(1.0, d=2),
    SequenceCovariance([0.5, 0.25, 0.25], d=2),
    BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6),
    BivariateSpectralMatern(1.0, 1.0, 1.5, 2.0, rho=0.5),
    SequenceMultiCovariance([np.eye(2), 0.5 * np.eye(2)], d=2),
]


@pytest.mark.parametrize("model", CATALOG, ids=lambda m: type(m).__name__)
def test_negative_degree_rejected(model):
    if model.p == 1:
        with pytest.raises(ValueError, match="nonnegative"):
            model.log_schoenberg_coeff(-1)
        with pytest.raises(ValueError, match="nonnegative"):
            model.schoenberg_coeff(np.array([0, 3, -1]))
    else:
        with pytest.raises(ValueError, match="nonnegative"):
            model.schoenberg_matrix(-1)


NOT_INT64 = [1.7, 2.5, np.nan, np.inf, -np.inf, 2.0**63, 1e30, 2**70, np.uint64(2**63),
             np.array([1.0, 2.5])]


def degree_methods(model):
    if model.p == 1:
        return (model.log_schoenberg_coeff, model.schoenberg_coeff, model.magnitude)
    return (model.schoenberg_matrix, model.magnitude)


@pytest.mark.parametrize("model", CATALOG, ids=lambda m: type(m).__name__)
@pytest.mark.parametrize("degree", NOT_INT64, ids=repr)
def test_model_rejects_degrees_that_are_not_int64(model, degree):
    # at the parent log_schoenberg_coeff(2.5) and schoenberg_matrix(2.5)
    # gave the degree-2 values
    for method in degree_methods(model):
        with pytest.raises(ValueError, match="integer within int64"):
            method(degree)


@pytest.mark.parametrize("model", CATALOG, ids=lambda m: type(m).__name__)
def test_model_reads_integral_floats(model):
    for method in degree_methods(model):
        assert_array_equal(method(2.0), method(2))
        assert_array_equal(method(np.array([[0.0], [3.0]])), method(np.array([[0], [3]])))


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(CATALOG),
       degrees=st.lists(st.integers(0, 400), min_size=1, max_size=12))
def test_array_call_equals_scalar_calls_bit_for_bit(model, degrees):
    for method in degree_methods(model):
        singles = np.array([method(k) for k in degrees])
        assert method(np.array(degrees)).tobytes() == singles.tobytes()


# ------------------------------------------------------------------ matrices

def test_schoenberg_matrix_published_example():
    spec = BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6)
    B0 = spec.schoenberg_matrix(0)
    assert_allclose(B0, [[0.8, 0.48], [0.48, 0.3]], atol=1e-15)


def test_schoenberg_matrix_decoupled_is_diagonal():
    spec = BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.0)
    for n in (0, 1, 5):
        B = spec.schoenberg_matrix(n)
        assert B[0, 1] == 0.0
        assert B[1, 0] == 0.0


def test_schoenberg_matrix_entries_vanish_geometrically():
    spec = BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6)
    b_small = spec.schoenberg_matrix(60)
    assert np.max(np.abs(b_small)) < 0.8 * 0.7**59


def test_schoenberg_matrices_psd_and_factorable():
    spec = BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6)
    for n in range(101):
        B = spec.schoenberg_matrix(n)
        factor = factor_schoenberg_matrix(B, degree=n)
        assert np.max(np.abs(factor.matrix @ factor.matrix.T - B)) <= 1e-12


def test_valid_bivariate_sm_matrices_psd():
    spec = BivariateSpectralMatern(1.0, 2.0, 1.375, 0.75, rho=-0.6)
    assert spec.validate() == []
    for n in range(101):
        B = spec.schoenberg_matrix(n)
        factor = factor_schoenberg_matrix(B, degree=n)
        assert np.max(np.abs(factor.matrix @ factor.matrix.T - B)) <= 1e-12


def test_waived_cross_parameters_fail_psd_at_degree_two():
    # the published parameter set that violates the sufficient condition
    # produces indefinite matrices from degree 2 on; the numeric check
    # must catch it and name the degree
    spec = BivariateSpectralMatern(
        1.0, 2.0, 0.75, 0.75, rho=-0.6, allow_unverified_cross=True
    )
    spec.schoenberg_matrix(0)
    spec.schoenberg_matrix(1)
    with pytest.raises(ModelError, match="degree 2"):
        spec.schoenberg_matrix(2)


def test_waived_cross_parameters_fail_psd_in_one_array_call():
    spec = BivariateSpectralMatern(
        1.0, 2.0, 0.75, 0.75, rho=-0.6, allow_unverified_cross=True
    )
    assert spec.schoenberg_matrix(np.arange(2)).shape == (2, 2, 2)
    with pytest.raises(ModelError, match="at degree 2 is not positive semidefinite"):
        spec.schoenberg_matrix(np.arange(6))


def test_sequence_multi_covariance():
    mats = [np.eye(2), [[0.5, 0.2], [0.2, 0.5]]]
    spec = SequenceMultiCovariance(mats, d=2)
    assert spec.validate() == []
    assert_allclose(spec.schoenberg_matrix(1), mats[1])
    assert_allclose(spec.schoenberg_matrix(5), np.zeros((2, 2)))
    K0 = spec.covariance(0.0)
    assert_allclose(K0, [[1.5, 0.2], [0.2, 1.5]], atol=1e-14)
    assert spec.describe() == "matrix-sequence(p=2, degrees=0..1, d=2)"
    assert spec.decay() == ("finite", 1)
    # trailing zero matrices do not count towards the last degree
    assert SequenceMultiCovariance(mats + [np.zeros((2, 2))], d=2).decay() == ("finite", 1)


MULTI_MATRICES = [[[1.0, 0.2, 0.1], [0.2, 0.8, 0.3], [0.1, 0.3, 0.6]],
                  [[0.5, 0.1, 0.2], [0.1, 0.4, 0.1], [0.2, 0.1, 0.4]],
                  [[0.2, 0.05, 0.05], [0.05, 0.1, 0.05], [0.05, 0.05, 0.3]]]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("theta", [0.7, [0.7], np.linspace(0.0, np.pi, 6).reshape(2, 3)],
                         ids=["scalar", "one-element", "2-d"])
def test_sequence_multi_covariance_is_its_entries_sequence_covariances(d, theta):
    # each entry is the scalar sequence model of its coefficients, bit for
    # bit, and the shape is (p, p) + theta.shape: a 1-element theta used to
    # give (p, p)
    spec = SequenceMultiCovariance(MULTI_MATRICES, d=d)
    got = spec.covariance(theta)
    assert got.shape == (3, 3) + np.shape(theta)
    entries = np.array([[SequenceCovariance(spec.matrices[:, i, j], d=d).covariance(theta)
                         for j in range(3)] for i in range(3)])
    assert got.tobytes() == entries.tobytes()


# -------------------------------------------------------------- factorization

def test_factor_identity():
    factor = factor_schoenberg_matrix(np.eye(2))
    assert_allclose(factor.matrix, np.eye(2))


def test_factor_cholesky_branch():
    B = np.array([[0.8, 0.48], [0.48, 0.3]])
    factor = factor_schoenberg_matrix(B)
    assert factor.matrix[0, 0] == pytest.approx(np.sqrt(0.8), rel=1e-15)
    assert factor.matrix[0, 1] == 0.0  # lower triangular
    assert np.max(np.abs(factor.matrix @ factor.matrix.T - B)) < 1e-14


def test_factor_semidefinite_fallback():
    B = np.array([[1.0, 1.0], [1.0, 1.0]])
    factor = factor_schoenberg_matrix(B)
    assert np.max(np.abs(factor.matrix @ factor.matrix.T - B)) <= 1e-12
    assert_allclose(factor.matrix, factor.matrix.T, atol=1e-14)


@pytest.mark.parametrize("B, message", [
    (np.ones((2, 3)), "factorization needs a square matrix"),
    (np.ones(4), "factorization needs a square matrix"),
    (np.array([[1.0, 0.5], [0.4, 1.0]]), "factorization needs a symmetric matrix"),
], ids=["2x3", "vector", "asymmetric"])
def test_factor_rejects_a_matrix_that_is_not_square_and_symmetric(B, message):
    with pytest.raises(ModelError) as caught:
        factor_schoenberg_matrix(B)
    assert str(caught.value) == message


def test_factor_rejects_indefinite():
    with pytest.raises(ModelError):
        factor_schoenberg_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_factor_columns():
    B = np.array([[0.8, 0.48], [0.48, 0.3]])
    factor = factor_schoenberg_matrix(B)
    recon = sum(np.outer(factor.column(i), factor.column(i)) for i in range(2))
    assert_allclose(recon, B, atol=1e-14)
