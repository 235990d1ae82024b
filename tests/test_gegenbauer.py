import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import eval_chebyt, eval_gegenbauer

from turnarcs.covariance import SequenceCovariance
from turnarcs.gegenbauer import (
    gegenbauer_at_one,
    gegenbauer_eval,
    gegenbauer_eval_table,
    gegenbauer_eval_weighted,
    gegenbauer_log_at_one,
    gegenbauer_norm_sq,
)
from turnarcs.simulator import (AFFINE, SERIES, SERIES_MIN_DEGREE, _profile_methods, _series_row,
                                 sample_pole)

from conftest import projections, wave_profiles

EPS = np.finfo(float).eps


def theta_quadrature(f, d, nodes=400):
    """Independent oracle: Gauss-Legendre integral of f(theta)*sin(theta)^(d-1) on [0, pi]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    theta = 0.5 * np.pi * (x + 1.0)
    return 0.5 * np.pi * np.sum(w * f(theta) * np.sin(theta) ** (d - 1))


def test_degree_zero_is_one():
    assert gegenbauer_eval(0.5, 0, 0.7) == 1.0


def test_degree_one_is_linear():
    assert gegenbauer_eval(0.5, 1, 0.3) == pytest.approx(0.3, abs=1e-15)


def test_degree_two_at_endpoint():
    # generating function at r=1 reduces to (1-t)^(-2*lam); for lam=1/2 every
    # coefficient is 1 (Legendre P_n(1) = 1)
    assert gegenbauer_eval(0.5, 2, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_chebyshev_second_kind_identity():
    phi = 0.4
    expected = np.sin(4 * phi) / np.sin(phi)
    assert gegenbauer_eval(1.0, 3, np.cos(phi)) == pytest.approx(expected, abs=1e-13)


def test_table_first_two_degrees():
    assert_allclose(gegenbauer_eval_table(0.5, 1, 0.3), [1.0, 0.3], atol=1e-15)


def test_table_direct_recurrence_step():
    # G_2 = (2*(1+lam-1)/2)*0*G_1 - ((2+2*lam-2)/2)*G_0 = -lam at r=0
    assert_allclose(gegenbauer_eval_table(1.5, 2, 0.0), [1.0, 0.0, -1.5], atol=1e-15)


def test_table_matches_repeated_eval_bitwise():
    r = -0.4
    table = gegenbauer_eval_table(2.0, 10, r)
    singles = np.array([gegenbauer_eval(2.0, k, r) for k in range(11)])
    assert_array_equal(table, singles)


def test_table_matches_repeated_eval_vector():
    r = np.linspace(-1, 1, 17)
    table = gegenbauer_eval_table(0.75, 8, r)
    for k in range(9):
        assert_array_equal(table[k], gegenbauer_eval(0.75, k, r))


@pytest.mark.parametrize(
    "lam, n, expected",
    [(0.5, 5, 1.0), (1.0, 7, 8.0), (2.0, 0, 1.0)],
)
def test_value_at_one(lam, n, expected):
    assert gegenbauer_at_one(lam, n) == pytest.approx(expected, rel=1e-13)


def test_value_at_one_matches_recurrence():
    for lam in (0.5, 1.0, 2.5):
        for n in (0, 1, 4, 13):
            assert gegenbauer_at_one(lam, n) == pytest.approx(
                gegenbauer_eval(lam, n, 1.0), rel=1e-12
            )


def test_log_at_one_survives_large_degree():
    val = gegenbauer_log_at_one(127.5, 10**6)
    assert np.isfinite(val)


def test_norm_sq_examples():
    # oracles: numeric quadrature of the defining integrals
    q0 = theta_quadrature(lambda t: np.ones_like(t), 2)
    assert gegenbauer_norm_sq(2, 0) == pytest.approx(q0, rel=1e-12)
    assert gegenbauer_norm_sq(2, 0) == pytest.approx(2.0, rel=1e-12)

    q3 = theta_quadrature(lambda t: gegenbauer_eval(0.5, 3, np.cos(t)) ** 2, 2)
    assert gegenbauer_norm_sq(2, 3) == pytest.approx(q3, rel=1e-12)
    assert gegenbauer_norm_sq(2, 3) == pytest.approx(2.0 / 7.0, rel=1e-12)

    # circle branch 2*pi/n^2; cross-check against the cosine integral at n=2
    cos_sq = theta_quadrature(lambda t: np.cos(2 * t) ** 2, 1)
    assert gegenbauer_norm_sq(1, 2) == pytest.approx(np.pi / 2, rel=1e-12)
    assert gegenbauer_norm_sq(1, 2) == pytest.approx(cos_sq, rel=1e-12)


def test_norm_sq_circle_rejects_degree_zero():
    with pytest.raises(ValueError):
        gegenbauer_norm_sq(1, 0)


@pytest.mark.parametrize("bad", [1.0001, -1.5, 2.0])
def test_argument_domain(bad):
    with pytest.raises(ValueError):
        gegenbauer_eval(0.5, 3, bad)


@pytest.mark.parametrize("call, message", [
    (lambda: gegenbauer_eval_table(0.5, -1, 0.3), "max_degree must be nonnegative"),
    (lambda: gegenbauer_eval_weighted(0.5, -1, 0.3, 2.0), "degree must be nonnegative"),
    (lambda: gegenbauer_log_at_one(0.0, 3), "lambda must be positive, got 0.0"),
    (lambda: gegenbauer_norm_sq(0, 1), "sphere dimension must be >= 1"),
    (lambda: gegenbauer_norm_sq(2, -1), "degree must be nonnegative"),
    (lambda: gegenbauer_norm_sq(1, 0), "norm formula on the circle is undefined at degree 0"),
], ids=["table-degree", "weighted-degree", "log-at-one-lambda", "norm-sphere", "norm-degree",
        "norm-circle-degree-0"])
def test_degree_lambda_and_sphere_checks_name_the_argument(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message


def test_lambda_domain():
    with pytest.raises(ValueError):
        gegenbauer_eval(0.0, 3, 0.5)
    with pytest.raises(ValueError):
        gegenbauer_eval(-1.0, 3, 0.5)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("r", [-1.0, -0.6, 0.0, 0.3, 0.99, 1.0])
def test_generating_function(lam, r):
    # sum_n G_n(r) t^n converges geometrically to (1 - 2rt + t^2)^(-lam)
    t = 0.3
    table = gegenbauer_eval_table(lam, 60, r)
    partial = np.sum(table * t ** np.arange(61))
    closed = (1.0 - 2.0 * r * t + t * t) ** (-lam)
    assert partial == pytest.approx(closed, abs=1e-10)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 63.5, 127.5])
def test_bounded_by_value_at_one(lam):
    r = np.linspace(-1, 1, 201)
    table = gegenbauer_eval_table(lam, 20, r)
    at_one = gegenbauer_at_one(lam, np.arange(21))
    assert np.all(np.abs(table) <= at_one[:, None] * (1 + 1e-13))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_orthogonality(d):
    lam = 0.5 * (d - 1)
    x, w = legendre.leggauss(600)
    theta = 0.5 * np.pi * (x + 1.0)
    weight = 0.5 * np.pi * w * np.sin(theta) ** (d - 1)
    table = gegenbauer_eval_table(lam, 15, np.cos(theta))
    gram = (table * weight) @ table.T
    for n in range(16):
        for k in range(16):
            expected = gegenbauer_norm_sq(d, n) if n == k else 0.0
            assert gram[n, k] == pytest.approx(expected, abs=1e-8)


def test_legendre_special_case():
    r = np.linspace(-1, 1, 101)
    for n in range(11):
        ours = gegenbauer_eval(0.5, n, r)
        ref = legendre.Legendre.basis(n)(r)
        assert_allclose(ours, ref, atol=1e-12)


def test_chebyshev_u_special_case():
    phi = np.linspace(0.05, np.pi - 0.05, 101)
    for n in range(11):
        ours = gegenbauer_eval(1.0, n, np.cos(phi))
        ref = np.sin((n + 1) * phi) / np.sin(phi)
        assert_allclose(ours, ref, atol=1e-12)


# ------------------------------------------------- the one recurrence kernel
# Every consumer of gegenbauer._recurrence is checked against scipy's
# eval_gegenbauer (eval_chebyt on the circle).  The two algorithms round
# differently and both errors grow like n^2 eps of the amplitude G_n(1); a
# wrong coefficient or a lost row is off by O(1) of it.

def kernel_tolerance(n):
    """Allowed |kernel - scipy| relative to the amplitude G_n(1)."""
    return 8.0 * EPS * (n + 1) ** 2


@settings(max_examples=60, deadline=None)
@given(
    lam=st.floats(0.5, 127.5),
    n=st.integers(0, 200),
    weight=st.floats(-1e3, 1e3).filter(lambda w: abs(w) > 1e-3),
    r=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40),
)
@example(lam=127.5, n=200, weight=1.0, r=[1.0, -1.0, 0.0])
@example(lam=0.5, n=0, weight=-2.0, r=[0.3])
@example(lam=3.0, n=1, weight=0.5, r=[-1.0, 1.0])
def test_scalar_kernel_matches_scipy(lam, n, weight, r):
    r = np.array(r)
    ref = eval_gegenbauer(n, lam, r)
    tol = kernel_tolerance(n) * gegenbauer_at_one(lam, n)
    assert np.max(np.abs(gegenbauer_eval(lam, n, r) - ref)) <= tol
    got = gegenbauer_eval_weighted(lam, n, r, weight)
    assert np.max(np.abs(got - weight * ref)) <= tol * abs(weight)
    table = gegenbauer_eval_table(lam, n, r)
    assert table.shape == (n + 1, r.size)
    for k in range(n + 1):
        err = np.max(np.abs(table[k] - eval_gegenbauer(k, lam, r)))
        assert err <= kernel_tolerance(k) * gegenbauer_at_one(lam, k)
    assert_array_equal(table[n], gegenbauer_eval(lam, n, r))


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(2, 256),
    kappas=st.lists(st.integers(0, 120), min_size=1, max_size=12),
    npts=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=2, kappas=[0, 0, 0], npts=4, seed=1)          # all rows degree 0
@example(d=256, kappas=[77], npts=3, seed=2)             # a single row
@example(d=3, kappas=[5, 0, 120, 1, 5, 2], npts=5, seed=3)
@example(d=2, kappas=[9, 8, 120, 9, 40, 41, 0, 8, 7], npts=6, seed=4)   # series bands
def test_shrinking_batch_matches_scipy(d, kappas, npts, seed):
    # random points and poles on the d-sphere; each row is one wave at its
    # own projections
    rng = np.random.default_rng(seed)
    k = np.array(kappas, dtype=np.int64)
    points = sample_pole(d, rng, size=npts)
    poles = sample_pole(d, rng, size=k.size)
    t = projections(points, poles)
    scale = rng.normal(size=k.size)
    got = wave_profiles(d, k, points, poles, scale)
    codes = _profile_methods(d, k, npts)
    assert np.all((codes == SERIES) == ((d <= 3) & (k >= SERIES_MIN_DEGREE)))
    lam = 0.5 * (d - 1)
    for i, n in enumerate(kappas):
        ref = scale[i] * eval_gegenbauer(n, lam, t[i])
        tol = kernel_tolerance(n) * abs(scale[i]) * gegenbauer_at_one(lam, n)
        assert np.max(np.abs(got[i] - ref)) <= tol
        # the batch runs each row's own steps: the scalar path's, on d <= 3
        # from degree SERIES_MIN_DEGREE on the series row's, and for degrees
        # 0 and 1 the affine map of the row alone; same rounding
        if codes[i] == SERIES:
            assert_array_equal(got[i], _series_row(lam, n, scale[i])(t[i]))
        elif codes[i] == AFFINE:
            assert_array_equal(got[i], wave_profiles(d, k[i : i + 1], points, poles[i : i + 1],
                                                     scale[i : i + 1])[0])
        else:
            assert_array_equal(got[i], gegenbauer_eval_weighted(lam, n, t[i], scale[i]))


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 256),
    coeffs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60).filter(
        lambda c: max(c) > 0.0),
    theta=st.lists(st.floats(0.0, np.pi), min_size=1, max_size=20),
)
@example(d=1, coeffs=[0.0, 0.0, 1.0], theta=[0.0, np.pi, 1.0])
@example(d=256, coeffs=[0.5] * 60, theta=[0.0, 0.5 * np.pi, np.pi])
def test_series_matches_scipy_sum(d, coeffs, theta):
    theta = np.array(theta)
    x = np.cos(theta)
    got = SequenceCovariance(coeffs, d).covariance(theta)
    ref = np.zeros_like(x)
    tol = 0.0
    for n, c in enumerate(coeffs):
        if d == 1:
            ref += c * eval_chebyt(n, x)
            amp = 1.0
        else:
            ref += c * eval_gegenbauer(n, 0.5 * (d - 1), x)
            amp = gegenbauer_at_one(0.5 * (d - 1), n)
        tol += c * amp * kernel_tolerance(len(coeffs))
    assert np.max(np.abs(got - ref)) <= tol
