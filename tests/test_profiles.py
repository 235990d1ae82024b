"""Tabulated wave profiles: quintic Hermite interpolation of weight *
G_n(cos theta) on m >= 16n uniform theta intervals (nodes from the Fourier
series on d <= 3, from the recurrence above), checked against the exact
weighted recurrence and scipy.special.eval_gegenbauer.

Errors are relative to the wave amplitude |w| G_n(1).  The interpolation
error is at most PROFILE_ERROR_BOUND; on top of it comes the rounding of
evaluating G_n at a rounded argument, eps * n(n+2lam)/(1+2lam) near t = +-1
(the polynomial's condition number there), which the exact path shares.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal
from scipy.special import eval_gegenbauer

from turnarcs.covariance import Chentsov, GeneralizedF, NegativeBinomial
from turnarcs.degree_sampling import GeometricDegrees, OddShiftedZeta, ShiftedZeta
from turnarcs.gegenbauer import gegenbauer_eval_weighted, gegenbauer_log_at_one
from turnarcs.grids import LatLonGrid, Slice3Grid, build_grid
from turnarcs import simulator
from conftest import great_circle, projections, wave_profiles
from turnarcs.simulator import (
    AFFINE,
    CHEBYSHEV_ERROR_BOUND,
    CIRCLE,
    CLOSED,
    EXACT,
    TABLE,
    CHEBYSHEV_POINT_COST,
    CHEBYSHEV_ROW_COST,
    FOURIER_NODE_COST,
    FOURIER_TABLE_COST,
    INTERP_STEPS,
    NODES_PER_DEGREE,
    PROFILE_ERROR_BOUND,
    SERIES,
    SERIES_ERROR_BOUND,
    SERIES_MAX_DEGREE,
    SERIES_MIN_DEGREE,
    SERIES_POINT_COST,
    TABLE_STEP_COST,
    SimulationConfig,
    _METHODS,
    _column_limit,
    _fourier_node_count,
    _fourier_nodes,
    _profile_methods,
    _profile_nodes,
    _profile_table,
    _series_row,
    draw_wave,
    sample_pole,
    simulate,
    wave_rng,
)

EPS = np.finfo(float).eps
LD = np.longdouble


def tolerance(lam, n):
    """Allowed |profile - reference| relative to the wave amplitude."""
    return PROFILE_ERROR_BOUND + 2.0 * EPS * n * (n + 2.0 * lam) / (1.0 + 2.0 * lam)


def probe_points(n, extra):
    """Arguments t: the poles, points just off them (inside the first and
    last table interval and deeper), the equator, and drawn values."""
    h = np.pi / (NODES_PER_DEGREE * n)
    near = np.array([1e-12, 1e-6, 0.25 * h, 0.5 * h, h, 1.5 * h])
    return np.concatenate([[1.0, -1.0, 0.0], np.cos(near), -np.cos(near), extra])


def wave_weight(config, degree):
    """Scalar-model wave weight sqrt(b (2n+d-1) / (a (d-1))), written out
    independently of the simulator."""
    d = config.d
    log_w2 = (config.model.log_schoenberg_coeff(degree) + np.log(2.0 * degree + d - 1.0)
              - config.degrees.log_pmf(degree) - np.log(d - 1.0))
    return float(np.exp(0.5 * log_w2))


@settings(max_examples=30, deadline=None)
@given(
    lam=st.floats(0.5, 20.0),
    n=st.integers(1, 3000),
    log_amp=st.floats(-3.0, 3.0),
    sign=st.sampled_from([-1.0, 1.0]),
    extra=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=50),
)
@example(lam=0.5, n=3000, log_amp=0.0, sign=1.0, extra=[0.3])
@example(lam=20.0, n=3000, log_amp=2.0, sign=-1.0, extra=[-0.7])
@example(lam=1.0, n=1, log_amp=0.0, sign=1.0, extra=[0.5])
def test_tabulated_profile_within_bound(lam, n, log_amp, sign, extra):
    amp = 10.0**log_amp
    weight = sign * amp * np.exp(-gegenbauer_log_at_one(lam, n))
    t = probe_points(n, extra)
    got = _METHODS[TABLE].row(lam, n, weight)(t)
    tol = tolerance(lam, n) * amp
    exact = gegenbauer_eval_weighted(lam, n, t, weight)
    assert np.max(np.abs(got - exact)) <= tol
    scipy_ref = weight * eval_gegenbauer(n, lam, t)
    assert np.max(np.abs(got - scipy_ref)) <= tol


# the dimensions on which each method takes rows
PARITY_DIMENSIONS = {CIRCLE: (1,), EXACT: (2, 3, 4, 5), TABLE: (2, 3, 4, 5), CLOSED: (3,),
                     SERIES: (2, 3)}


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    code=st.sampled_from(sorted(PARITY_DIMENSIONS)),
    n=st.integers(2, 300),
    log_amp=st.floats(-3.0, 3.0),
    sign=st.sampled_from([-1.0, 1.0]),
    t=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=50),
)
@example(data=None, code=CLOSED, n=9_310_498, log_amp=0.0, sign=-1.0, t=[0.3])
@example(data=None, code=TABLE, n=299, log_amp=0.0, sign=1.0, t=[1e-300, 0.5])
@example(data=None, code=CIRCLE, n=7, log_amp=1.0, sign=-1.0, t=[np.cos(np.pi / 14)])
def test_every_row_keeps_its_parity_bit_for_bit(data, code, n, log_amp, sign, t):
    # row(-t) is (-1)^n row(t) in bit patterns, t = 1 included, for either
    # weight sign: what lets _profiles mirror any row on antipodal points
    # (t = 0 is left out: a zero projection is evaluated at every point)
    d = PARITY_DIMENSIONS[code][0] if data is None else data.draw(
        st.sampled_from(PARITY_DIMENSIONS[code]))
    n = max(n, SERIES_MIN_DEGREE) if code == SERIES else n
    t = np.array([1.0, *t])
    row = _METHODS[code].row(0.5 * (d - 1), n, sign * 10.0**log_amp)
    at, opposite = row(t), row(-t)
    expected = -at if n % 2 else at
    assert_array_equal(opposite.view(np.int64), expected.view(np.int64))


def test_bound_is_sharp_at_degree_one():
    # f = 2 lam w cos(theta) has |f^(6)| = |f|, so the Hermite remainder
    # reaches the bound mid-interval next to the poles
    t = np.cos(np.linspace(0.0, np.pi, 100_001))
    got = _METHODS[TABLE].row(1.0, 1, 0.5)(t)
    err = np.max(np.abs(got - t))
    assert 0.9 * PROFILE_ERROR_BOUND < err <= PROFILE_ERROR_BOUND


def test_huge_degree_tiny_weight_nodes_stay_finite():
    # degree 48,937 on the 128-sphere: G_n(1) ~ 1e380 overflows, the wave
    # weight ~ 1e-188 folds into the recurrence and the amplitude ~ 1e192
    # is representable.  The full table (783k nodes) is too slow for a unit
    # test; the node values and derivatives are checked where they are
    # largest, at and next to the poles, and at the equator.
    d, n = 128, 48_937
    lam = 0.5 * (d - 1)
    config = SimulationConfig(Chentsov(d=d), OddShiftedZeta(2.0), L=1, seed=0)
    weight = wave_weight(config, n)
    log_amp = np.log(weight) + gegenbauer_log_at_one(lam, n)
    assert weight < 1e-150 and np.isfinite(np.exp(log_amp))
    amp = np.exp(log_amp)
    h = np.pi / (NODES_PER_DEGREE * n)
    theta = np.array([0.0, h, 2 * h, 0.5 * np.pi, np.pi - h, np.pi])
    f, d1, d2 = _profile_nodes(lam, n, weight, theta)
    assert np.all(np.isfinite(f)) and np.all(np.isfinite(d1)) and np.all(np.isfinite(d2))
    assert f[0] == pytest.approx(amp, rel=1e-9)
    assert f[-1] == pytest.approx(-amp, rel=1e-9)          # odd degree
    assert d1[0] == 0.0 and d1[-1] == 0.0
    # Bernstein: |f'| <= n amp, |f''| <= n^2 amp for a degree-n cosine polynomial
    assert np.all(np.abs(d1) <= n * amp * (1 + 1e-9))
    assert np.all(np.abs(d2) <= n * n * amp * (1 + 1e-9))
    exact = gegenbauer_eval_weighted(lam, n, np.cos(theta), weight)
    assert np.max(np.abs(f - exact)) <= 1e-12 * amp


def test_overflowing_profile_takes_tabulated_path_and_stays_finite():
    # degree 2001 on the 256-sphere: G_n(1) ~ 1e338 overflows doubles
    d, n = 256, 2001
    lam = 0.5 * (d - 1)
    config = SimulationConfig(Chentsov(d=d), OddShiftedZeta(2.0), L=1, seed=0)
    weight = -wave_weight(config, n)
    amp = np.exp(np.log(-weight) + gegenbauer_log_at_one(lam, n))
    t = np.cos(np.linspace(0.0, np.pi, 40_000) ** 2 / np.pi)   # dense near the pole
    assert _profile_methods(d, n, t.size) == TABLE
    got = wave_profiles(d, [n], *great_circle(t), [weight])[0]
    assert np.all(np.isfinite(got))
    sample = slice(0, None, 97)
    exact = gegenbauer_eval_weighted(lam, n, t[sample], weight)
    assert np.max(np.abs(got[sample] - exact)) <= tolerance(lam, n) * amp


def fourier_integer_form(n, npts):
    """The Fourier-table cost model in integers, against the series within
    its degrees and the recurrence elsewhere, with the node count of each
    degree computed as the table builds it."""
    cost = FOURIER_TABLE_COST + FOURIER_NODE_COST * NODES_PER_DEGREE * n + INTERP_STEPS * npts
    if SERIES_MIN_DEGREE <= n <= SERIES_MAX_DEGREE:
        pays = 2 * cost < (n + SERIES_POINT_COST) * npts
    else:
        pays = cost < (n + 1) * npts
    return pays and (n < 1 or _fourier_node_count(n) + 1 <= npts)


def test_small_inputs_keep_the_exact_recurrence():
    rng = np.random.default_rng(5)
    for d in (2, 3, 4):
        for n, npts in ((3, 100_000), (40, 200), (20_000, 300_000)):
            assert _profile_methods(d, n, npts) != TABLE
        # zeta-tail degrees: the cost model must not overflow int64
        assert not np.any(_profile_methods(d, np.array([10**12, 2**62]), 300_000) == TABLE)
    # a recurrence table costs n steps over 16n nodes; a Fourier table pays
    # up to its node limit: 16 * 500 + 1 nodes exceed 8000 points
    assert _profile_methods(4, 500, 8_000) != TABLE
    assert _profile_methods(2, 500, 8_000) != TABLE and _profile_methods(2, 500, 8_001) == TABLE
    t = rng.uniform(-1.0, 1.0, 200)
    assert_array_equal(wave_profiles(4, [40], *great_circle(t), [0.3])[0],
                       gegenbauer_eval_weighted(1.5, 40, t, 0.3))


@settings(max_examples=50, deadline=None)
@given(npts=st.integers(1, 89_999_999))
@example(npts=10_000)
@example(npts=89_999_999)
def test_cost_model_matches_integer_form(npts):
    # the float64 form decides exactly as the cost model in integers around
    # both ends of the range of degrees where tabulating pays (it cannot pay
    # from degree npts / 16 on) and around the series' top degree
    top = npts // NODES_PER_DEGREE
    n = np.concatenate([np.arange(200), np.arange(max(0, top - 2000), top + 2),
                        np.arange(SERIES_MAX_DEGREE - 50, SERIES_MAX_DEGREE + 50)])
    integer_form = ((n + 1) * (NODES_PER_DEGREE * n + TABLE_STEP_COST) + INTERP_STEPS * npts
                    < (n + 1) * npts)
    assert_array_equal(_profile_methods(4, n, npts) == TABLE, integer_form)
    # the Fourier form's two integer limits, against the cost and the node
    # count of every degree near them
    fourier = [fourier_integer_form(int(k), npts) for k in n]
    assert_array_equal(_profile_methods(3, n, npts) == TABLE, fourier)
    assert_array_equal(_profile_methods(2, n, npts) == TABLE, fourier)


def test_large_inputs_take_the_tabulated_path():
    for d in (2, 3, 4):
        for n, npts in ((20, 100_000), (100, 10_000), (1000, 250_000)):
            assert _profile_methods(d, n, npts) == TABLE
    assert _profile_methods(2, 15_000, 250_000) == TABLE


def fourier_oracle(lam, n, weight, m, j):
    """f, f', f'' of weight * G_n(cos theta) at theta_j = pi j / m by the
    direct sum over sum_k alpha_k alpha_{n-k} cos((n-2k) theta) in long
    double: each angle is reduced modulo 2 pi in integers, so no angle
    carries the rounding of a large multiple of theta."""
    i = np.arange(1, n + 1, dtype=LD)
    alpha = np.concatenate([[LD(1)], np.cumprod((i + LD(lam - 1)) / i)])
    coef = LD(weight) * alpha * alpha[::-1]          # of cos((n - 2k) theta)
    freq = n - 2 * np.arange(n + 1)
    angle = np.arccos(LD(-1)) * ((freq[None, :] * j[:, None]) % (2 * m)).astype(LD) / m
    cos, sin = np.cos(angle), np.sin(angle)
    return ((coef * cos).sum(axis=1), -(coef * freq * sin).sum(axis=1),
            -(coef * freq.astype(LD) ** 2 * cos).sum(axis=1))


def reference_derivative_rounding(lam, n, amp):
    """Bounds on how far the f' and f'' of _profile_nodes lie from the
    derivatives at the exact node pi j / m, where sin(theta) >= 1/2, for
    lam in {1/2, 1} and amp = |w| G_n(1); u = eps / 2.  The derivation:
    - the node: linspace rounds theta within 3 pi u and cos(theta) moves
      arccos(t) by 2u more, which moves f^(i) by at most n^(i+1) amp (3 pi + 2) u
      (Bernstein);
    - the recurrence rounds f and w G_(n-1) (both within amp) within
      e = eps n amp at its rounded argument (measured at most 0.8 eps n amp);
    - f' = (n t f - c w G_(n-1)) / sin, c = n+2lam-1: the inputs give
      (sqrt(3) n + 2c) e, the products, the difference and the quotient,
      with sin rounded and |t| <= sqrt(3)/2, (5 + 4 sqrt(3)) n + 2c times u amp;
    - f'' = -n(n+2lam) f - 2lam cot f': the inputs give n(n+2lam) e and
      2lam sqrt(3) times the bound on f', the cotangent's rounding
      2lam (3 sqrt(3) + 6) u n amp and the products and difference
      (n(n+2lam) + 2lam sqrt(3) n + n^2) u amp."""
    u, r3 = EPS / 2, np.sqrt(3.0)
    e, c, eig = EPS * n * amp, n + 2.0 * lam - 1.0, n * (n + 2.0 * lam)
    node = (3.0 * np.pi + 2.0) * u * amp
    d1 = (r3 * n + 2.0 * c) * e + u * amp * ((5.0 + 4.0 * r3) * n + 2.0 * c)
    d2 = (eig * e + u * eig * amp + 2.0 * lam * (r3 * d1 + (4.0 * r3 + 6.0) * u * n * amp)
          + u * n * n * amp)
    return d1 + node * n**2, d2 + node * n**3


@settings(max_examples=5, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    n=st.integers(1, 100_000),
    log_amp=st.floats(-3.0, 3.0),
    sign=st.sampled_from([-1.0, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=2, n=997, log_amp=0.0, sign=1.0, seed=0)
@example(d=3, n=997, log_amp=1.0, sign=-1.0, seed=1)
@example(d=2, n=100_000, log_amp=0.0, sign=-1.0, seed=2)
@example(d=3, n=1, log_amp=0.0, sign=1.0, seed=3)
@example(d=3, n=1, log_amp=1.40625, sign=-1.0, seed=1)
def test_fourier_nodes_within_rounding_bound(d, n, log_amp, sign, seed):
    # relative to the amplitude |w| G_n(1), times n^i for the i-th derivative:
    # the transforms round within eps log2(m) (all coefficients share the
    # weight's sign), the long-double alpha_k within n long-double ulps
    lam = 0.5 * (d - 1)
    amp = 10.0**log_amp
    weight = sign * amp * np.exp(-gegenbauer_log_at_one(lam, n))
    m = _fourier_node_count(n)
    assert NODES_PER_DEGREE * n <= m <= 1.125 * NODES_PER_DEGREE * n
    rng = np.random.default_rng(seed)
    j = np.unique(np.concatenate([[0, 1, 2, m // 2, m - 2, m - 1, m],
                                  rng.integers(0, m + 1, 9)]))
    got = [row[j] for row in _fourier_nodes(lam, n, weight, m)]
    assert got[1][0] == 0.0 and got[1][-1] == 0.0
    rounding = (EPS * np.log2(m) + n * np.finfo(LD).eps) * amp
    for i, (g, ref) in enumerate(zip(got, fourier_oracle(lam, n, weight, m, j))):
        assert np.max(np.abs(g - ref.astype(float))) <= rounding * n**i
    # the recurrence and scipy: their own rounding at a rounded argument,
    # eps n(n+2lam)/(1+2lam) of the amplitude near the poles (see tolerance);
    # the derivative formulas divide by sin(theta), so they are compared
    # where sin(theta) >= 1/2, within the reference's own rounding there
    theta = np.linspace(0.0, np.pi, m + 1)[j]
    exact = _profile_nodes(lam, n, weight, theta)
    allowed = rounding + 2.0 * EPS * n * (n + 2.0 * lam) / (1.0 + 2.0 * lam) * amp
    assert np.max(np.abs(got[0] - exact[0])) <= allowed
    assert np.max(np.abs(got[0] - weight * eval_gegenbauer(n, lam, np.cos(theta)))) <= allowed
    inner = np.sin(theta) >= 0.5
    for i, reference in zip((1, 2), reference_derivative_rounding(lam, n, amp)):
        err = np.abs(got[i] - exact[i])[inner]
        assert np.all(err <= rounding * n**i + reference)


def test_recurrence_tables_above_the_fourier_range():
    # d = 4 keeps the recurrence nodes on exactly 16n intervals; d <= 3 pads
    # 16n = 15952 (= 16 * 997) to the 5-smooth 16000.  Either table keeps
    # the intervals j = 0 .. m // 2 that theta = arccos|t| <= pi / 2 reaches
    n, weight = 997, 0.7
    m = NODES_PER_DEGREE * n
    recurrence, scale = _profile_table(1.5, n, weight)
    assert recurrence.shape == (6, m // 2 + 1) and scale == m / np.pi
    f = _profile_nodes(1.5, n, weight, np.linspace(0.0, np.pi, m + 1))[0]
    assert_array_equal(recurrence[0], f[: m // 2 + 1])
    for lam in (0.5, 1.0):
        fourier, scale = _profile_table(lam, n, weight)
        assert fourier.shape == (6, 8_001) and scale == 16_000 / np.pi
        assert_array_equal(fourier[0], _fourier_nodes(lam, n, weight, 16_000)[0][:8_001])


def chebyshev_oracle(n, weight, t):
    """weight * U_n(t) in long double, from the same closed form at
    theta = arccos|t| (64-bit mantissa, so (n+1) theta and the sines carry
    about 2**-11 of a double's rounding)."""
    theta = np.arccos(np.abs(t).astype(LD))
    sin = np.sin(theta)
    pole = sin == 0
    u = np.sin((LD(n) + 1) * theta) / np.where(pole, 1, sin)
    u[pole] = LD(n) + 1
    return LD(weight) * np.where((t < 0) & (n % 2 == 1), -u, u)


def chebyshev_probes(n, extra):
    """t at and next to both poles (inside the first lobe of U_n and
    deeper), at and next to the equator, and drawn values."""
    near = np.array([1e-300, 1e-12, 1e-8, 0.1 / (n + 1), 1.0 / (n + 1), 2.0 / (n + 1)])
    return np.concatenate([[1.0, -1.0, 0.0, -0.0, 1e-17, -1e-17, 0.5, -0.5],
                           np.cos(near), -np.cos(near), np.cos(np.pi / 2 - near),
                           np.cos(np.pi / 2 + near), extra])


@settings(max_examples=40, deadline=None)
@given(
    n=st.one_of(st.integers(1, 2000), st.integers(1, 10_000_000)),
    log_amp=st.floats(-3.0, 3.0),
    sign=st.sampled_from([-1.0, 1.0]),
    extra=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=400),
)
@example(n=9_310_498, log_amp=0.0, sign=1.0, extra=[0.3])
@example(n=1, log_amp=0.0, sign=-1.0, extra=[-0.7])
@example(n=608, log_amp=2.0, sign=-1.0, extra=[0.999999])
def test_chebyshev_profiles_within_bound(n, log_amp, sign, extra):
    # relative to the amplitude |w| (n+1) = |w| G_n^1(1)
    amp = 10.0**log_amp
    weight = sign * amp / (n + 1)
    t = chebyshev_probes(n, extra)
    got = _METHODS[CLOSED].row(1.0, n, weight)(t)
    assert np.all(np.isfinite(got))
    err = np.abs(got.astype(LD) - chebyshev_oracle(n, weight, t))
    assert np.max(err) <= CHEBYSHEV_ERROR_BOUND * amp
    assert got[0] == weight * (n + 1) and got[1] == weight * (n + 1) * (-1) ** n


@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, 100_000), seed=st.integers(0, 2**32 - 1))
@example(n=100_000, seed=0)
@example(n=608, seed=1)
def test_chebyshev_profiles_match_scipy(n, seed):
    # scipy's recurrence rounds within eps n(n+2)/3 of the amplitude at a
    # rounded argument near t = +-1 (see tolerance); the closed form adds
    # its own bound
    t = chebyshev_probes(n, np.random.default_rng(seed).uniform(-1.0, 1.0, 500))
    weight = 0.7 / (n + 1)
    got = _METHODS[CLOSED].row(1.0, n, weight)(t)
    allowed = CHEBYSHEV_ERROR_BOUND + 2.0 * EPS * n * (n + 2.0) / 3.0
    assert np.max(np.abs(got - weight * eval_gegenbauer(n, 1.0, t))) <= allowed * 0.7


@settings(max_examples=50, deadline=None)
@given(npts=st.integers(1, 89_999_999))
@example(npts=1)
@example(npts=10_000)
@example(npts=250_000)
def test_chebyshev_cost_model_matches_integer_form(npts):
    # the 3-sphere takes the closed form above the column limit unless the
    # series (or below its degrees the recurrence) is cheaper; every other
    # dimension never does
    limit = _column_limit(npts)
    closed = CHEBYSHEV_ROW_COST + CHEBYSHEV_POINT_COST * npts
    cheap = 2 * closed // npts - SERIES_POINT_COST
    n = np.unique(np.concatenate([np.arange(200), np.arange(max(0, limit - 50), limit + 50),
                                  np.arange(max(0, cheap - 50), cheap + 50),
                                  np.arange(SERIES_MAX_DEGREE - 50, SERIES_MAX_DEGREE + 50),
                                  [2**62]]))
    integer_form = [k > limit and (2 * closed < (k + SERIES_POINT_COST) * npts
                                   if SERIES_MIN_DEGREE <= k <= SERIES_MAX_DEGREE
                                   else closed < (k + 1) * npts)
                    for k in n.tolist()]
    assert_array_equal(_profile_methods(3, n, npts) == CLOSED, integer_form)
    for d in (2, 4):
        assert not np.any(_profile_methods(d, n, npts) == CLOSED)


def cheapest_method(d, n, npts):
    """The method rule in integers: degrees 0 and 1 take the affine map and
    d = 1 the circle; else the cheapest method by its cost, twice over so that
    every cost is an integer, where on equal costs the first of exact,
    series, table and closed wins.  A Fourier table holds n while its
    _fourier_node_count(n) + 1 columns fit in npts; the closed form takes
    the 3-sphere degrees that no Fourier table holds."""
    if n <= 1:
        return AFFINE
    if d == 1:
        return CIRCLE
    fits = NODES_PER_DEGREE * n < npts and _fourier_node_count(n) + 1 <= npts
    costs = {EXACT: 2 * (n + 1) * npts}
    if d <= 3 and SERIES_MIN_DEGREE <= n <= SERIES_MAX_DEGREE:
        costs[SERIES] = (n + SERIES_POINT_COST) * npts
    if d >= 4:
        costs[TABLE] = 2 * ((n + 1) * (NODES_PER_DEGREE * n + TABLE_STEP_COST)
                            + INTERP_STEPS * npts)
    elif fits:
        costs[TABLE] = 2 * (FOURIER_TABLE_COST + FOURIER_NODE_COST * NODES_PER_DEGREE * n
                            + INTERP_STEPS * npts)
    if d == 3 and not fits:
        costs[CLOSED] = 2 * (CHEBYSHEV_ROW_COST + CHEBYSHEV_POINT_COST * npts)
    return min(costs, key=costs.get)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 8), npts=st.sampled_from([1, 7, 500, 10_000, 250_000]),
       drawn=st.lists(st.one_of(st.integers(0, 1000), st.integers(0, 2**62)), max_size=30))
@example(d=3, npts=100, drawn=[298, 299])
@example(d=2, npts=95_200, drawn=[19, 20])
def test_profile_methods_follow_the_cost_rules(d, npts, drawn):
    # every row takes the method of the integer rule, in int64 up to 2^62
    limit = _column_limit(npts)
    degrees = np.array([0, 1, max(limit - 1, 0), limit, limit + 1, 2**62] + drawn)
    methods = _profile_methods(d, degrees, npts)
    assert_array_equal(methods, [cheapest_method(d, int(k), npts) for k in degrees])


@pytest.mark.parametrize("d, degree, npts, method, tie", [
    (2, 19, 95_200, SERIES, True),          # series and table cost 999,600
    (3, 19, 95_200, SERIES, True),
    (3, 298, 100, SERIES, True),            # series and closed cost 15,000
    (3, 299, 100, CLOSED, False),
    (4, 10, 29_260, EXACT, True),           # exact and table cost 321,860
    (4, 10, 29_261, TABLE, False),
])
def test_equal_costs_keep_the_earlier_method(d, degree, npts, method, tie):
    lam = 0.5 * (d - 1)
    costs = sorted(float(m.cost(lam, np.array([degree]), npts)[0])
                   for m in _METHODS if m.cost is not None)
    assert (costs[0] == costs[1]) == tie
    assert _profile_methods(d, degree, npts) == method == cheapest_method(d, degree, npts)


def test_column_limit_rows_keep_their_paths():
    # on 10k points the Fourier limit is 607: degrees up to it keep their
    # table, series or exact-sweep bits, the ones above take the closed form
    # with the doubles of a row of their own, whatever the batch or tile
    # shape.  Every row sees the same projections t, exact at the poles and
    # zeros
    npts = 10_000
    assert _column_limit(npts) == 607
    t = np.random.default_rng(9).uniform(-1.0, 1.0, npts)
    t[:4] = [1.0, -1.0, 0.0, -0.0]
    points, poles = great_circle(t, 7)
    degrees = np.array([3, 607, 608, 9_310_498, 40, 1001, 12])
    weights = np.array([0.3, -0.2, 0.1, 1e-6, -0.5, 0.05, 0.9])
    got = wave_profiles(3, degrees, points, poles, weights)
    assert_array_equal(got[1], _METHODS[TABLE].row(1.0, 607, -0.2)(t))
    assert_array_equal(got[4], _METHODS[TABLE].row(1.0, 40, -0.5)(t))
    assert_array_equal(got[0], gegenbauer_eval_weighted(1.0, 3, t, weights[0]))
    assert_array_equal(got[6], _series_row(1.0, 12, weights[6])(t))
    for i in (2, 3, 5):
        assert_array_equal(got[i], _METHODS[CLOSED].row(1.0, int(degrees[i]), weights[i])(t))
        assert_array_equal(got[i], wave_profiles(3, degrees[i : i + 1], points, poles[:1],
                                                 weights[i : i + 1])[0])
    # and a batch of closed-form rows on few points
    few = t[:5].copy()
    heavy = np.full(7, 5000)
    batch = wave_profiles(3, heavy, *great_circle(few, 7), weights)
    for i in range(7):
        assert_array_equal(batch[i], _METHODS[CLOSED].row(1.0, 5000, weights[i])(few))


def recurrence_oracle(lam, n, weight, t):
    """weight * G_n^lam(t) by the three-term recurrence in long double."""
    r = t.astype(LD)
    prev, g = np.ones_like(r), 2 * LD(lam) * r
    for k in range(2, n + 1):
        prev, g = g, (2 * (k + LD(lam) - 1) * r * g - (k + 2 * LD(lam) - 2) * prev) / k
    return LD(weight) * (g if n else prev)


@settings(max_examples=12, deadline=None)
@given(
    lam=st.sampled_from([0.5, 1.0]),
    n=st.one_of(st.integers(SERIES_MIN_DEGREE, 300),
                st.integers(SERIES_MIN_DEGREE, SERIES_MAX_DEGREE)),
    log_amp=st.floats(-3.0, 3.0),
    sign=st.sampled_from([-1.0, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(lam=0.5, n=SERIES_MAX_DEGREE, log_amp=0.0, sign=1.0, seed=0)
@example(lam=1.0, n=SERIES_MAX_DEGREE - 1, log_amp=2.0, sign=-1.0, seed=1)
@example(lam=0.5, n=SERIES_MIN_DEGREE, log_amp=-1.0, sign=-1.0, seed=2)
@example(lam=1.0, n=1001, log_amp=0.0, sign=1.0, seed=3)
def test_series_profiles_within_bound(lam, n, log_amp, sign, seed):
    # relative to the amplitude |w| G_n(1), against the recurrence in long
    # double at the same t: t uniform, within 1e-12 of 0 and of +-1, and at
    # theta ~ 1/n, where the rounding of y = 4t^2 - 2 costs the most
    amp = 10.0**log_amp
    weight = sign * amp * np.exp(-gegenbauer_log_at_one(lam, n))
    rng = np.random.default_rng(seed)
    near = rng.uniform(0.0, 1e-12, 30)
    t = np.concatenate([[1.0, -1.0, 0.0, -0.0], rng.uniform(-1.0, 1.0, 60), 1.0 - near,
                        near - 1.0, near, -near, np.cos(rng.uniform(0.2, 8.0, 30) / n)])
    got = _series_row(lam, n, weight)(t)
    err = np.abs(got.astype(LD) - recurrence_oracle(lam, n, weight, t))
    assert np.max(err) <= SERIES_ERROR_BOUND * (n + 1) ** 2 * amp


@settings(max_examples=15, deadline=None)
@given(
    lam=st.sampled_from([0.5, 1.0, 1.5, 3.5, 63.5]),
    n=st.one_of(st.integers(1, 60), st.integers(1, 5000)),
    log_amp=st.floats(-3.0, 3.0),
    sign=st.sampled_from([-1.0, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(lam=0.5, n=10, log_amp=0.0, sign=1.0, seed=0)
@example(lam=63.5, n=5000, log_amp=0.0, sign=-1.0, seed=1)
@example(lam=1.0, n=5000, log_amp=2.0, sign=1.0, seed=2)
def test_exact_profiles_within_bound(lam, n, log_amp, sign, seed):
    # the exact method's bound, SERIES_ERROR_BOUND (n+1)^2 of the amplitude
    # |w| G_n(1), against the recurrence in long double at the same t: the
    # rounding is worst near t = +-1, so most points sit within 1e-12 of
    # them or at theta ~ 1/n
    amp = 10.0**log_amp
    weight = sign * amp * np.exp(-gegenbauer_log_at_one(lam, n))
    rng = np.random.default_rng(seed)
    near = rng.uniform(0.0, 1e-12, 20)
    ends = np.cos(rng.uniform(0.05, 8.0, 40) / n)
    t = np.concatenate([[1.0, -1.0, 0.0], rng.uniform(-1.0, 1.0, 20), 1.0 - near, near - 1.0,
                        ends, -ends])
    got = _METHODS[EXACT].row(lam, n, weight)(t)
    err = np.abs(got.astype(LD) - recurrence_oracle(lam, n, weight, t))
    assert np.max(err) <= _METHODS[EXACT].bound(n) * amp


@settings(max_examples=20, deadline=None)
@given(
    n=st.one_of(st.integers(1, 2000), st.integers(1, 10**9)),
    log_amp=st.floats(-3.0, 3.0),
    sign=st.sampled_from([-1.0, 1.0]),
    extra=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40),
)
@example(n=10**9, log_amp=0.0, sign=1.0, extra=[0.3])
@example(n=2_800_001, log_amp=1.0, sign=-1.0, extra=[-0.999])
@example(n=1, log_amp=0.0, sign=1.0, extra=[0.5])
def test_circle_profiles_within_bound(n, log_amp, sign, extra):
    # the circle's bound, 5 eps (n+1) of |w|, against w cos(n arccos t) at
    # 40 digits for the same double t; large n multiplies the arccos
    # rounding, worst where theta is largest
    weight = sign * 10.0**log_amp
    theta = np.array([1e-12, 0.5 / n, 1.0, np.pi / 2, np.pi - 1e-9, np.pi - 0.5 / n])
    t = np.concatenate([[1.0, -1.0, 0.0], np.cos(theta), extra])
    got = _METHODS[CIRCLE].row(0.0, n, weight)(t)
    with mpmath.workdps(40):
        exact = [weight * mpmath.cos(n * mpmath.acos(mpmath.mpf(float(x)))) for x in t]
        err = max(abs(mpmath.mpf(float(g)) - e) for g, e in zip(got, exact))
    assert float(err) <= _METHODS[CIRCLE].bound(n) * abs(weight)


def test_series_bands_equal_single_rows(monkeypatch):
    # a batch on few points shares series sweeps: bands of both parities,
    # rows that join at different K, pairs of equal degree and weight and
    # of equal degree and opposite weight, and the rows on either side of
    # the series cap (32768 series, 32769 exact).  Every row has the
    # doubles of its own row function, whatever the band height (POINT_BLOCK
    # // npts) and the coefficient blocks (POINT_BLOCK // rows indices)
    rng = np.random.default_rng(17)
    npts, d = 8, 2
    degrees = np.array([8, 9, 8, 8, 40, 41, 41, 8_000, 13, 14, 300, 301, 9, 9,
                        SERIES_MAX_DEGREE, SERIES_MAX_DEGREE - 1, SERIES_MAX_DEGREE + 1, 7, 0])
    weights = rng.normal(size=degrees.size)
    weights[2] = weights[0]                             # one (8, w) pair of two rows
    weights[3] = -weights[0]
    weights[13] = weights[12]
    points = sample_pole(d, rng, size=npts)
    poles = sample_pole(d, rng, size=degrees.size)
    t = projections(points, poles)
    codes = _profile_methods(d, degrees, npts)
    assert np.count_nonzero(codes == SERIES) == degrees.size - 3
    assert codes[16] == EXACT and codes[17] == EXACT
    single = [wave_profiles(d, degrees[i : i + 1], points, poles[i : i + 1], weights[i : i + 1])[0]
              for i in range(degrees.size)]
    for i in np.flatnonzero(codes == SERIES):
        assert_array_equal(single[i], _series_row(0.5, int(degrees[i]), weights[i])(t[i]))
    for block in (16384, 64, 24):
        monkeypatch.setattr(simulator, "POINT_BLOCK", block)
        assert_array_equal(wave_profiles(d, degrees, points, poles, weights), np.array(single))


@settings(max_examples=25, deadline=None)
@given(
    lam=st.sampled_from([0.5, 1.0]),
    parity=st.integers(0, 1),
    halves=st.lists(st.integers(SERIES_MIN_DEGREE // 2, 200), min_size=1, max_size=3,
                    unique=True),
    copies=st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 300.0)),
                    min_size=2, max_size=6),
    npts=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
@example(lam=0.5, parity=0, halves=[4], copies=[(1.0, 300.0), (-1.0, -300.0)], npts=3, seed=0)
def test_series_band_of_equal_degrees_equals_single_rows(lam, parity, halves, copies, npts,
                                                         seed):
    # rows of one degree share their unit-weight coefficients whatever their
    # weights, which multiply each row's sum once at the end: every row of a
    # band has the doubles of its row run alone, for weights of both signs
    # from 1e-300 to 1e300
    degrees = np.repeat(np.sort(2 * np.array(halves) + parity)[::-1], len(copies))
    weights = np.tile([sign * 10.0**e for sign, e in copies], len(halves))
    rng = np.random.default_rng(seed)
    t = rng.uniform(-1.0, 1.0, (degrees.size, npts))
    t[:, 0] = rng.choice([-1.0, 1.0, 0.3], degrees.size)
    band = simulator._clenshaw(simulator._series_coefficients(lam, degrees, weights), t)
    for i, (n, w) in enumerate(zip(degrees.tolist(), weights.tolist())):
        assert_array_equal(band[i], _series_row(lam, n, w)(t[i]))


@settings(max_examples=30, deadline=None)
@given(lam=st.sampled_from([0.5, 1.0]),
       n=st.integers(SERIES_MIN_DEGREE, SERIES_MAX_DEGREE),
       weight=st.floats(-1e6, 1e6).filter(lambda w: w != 0.0),
       seed=st.integers(0, 2**32 - 1))
@example(lam=0.5, n=SERIES_MIN_DEGREE, weight=1.0, seed=0)
@example(lam=1.0, n=SERIES_MIN_DEGREE + 1, weight=-2.5, seed=1)
@example(lam=0.5, n=SERIES_MAX_DEGREE, weight=0.3, seed=2)
@example(lam=1.0, n=SERIES_MAX_DEGREE - 1, weight=-7.0, seed=3)
def test_lone_series_row_has_the_coefficients_of_a_band(lam, n, weight, seed):
    # a lone row takes its coefficients from two slices of the alpha table,
    # not from _series_coefficients, with the same doubles: even and odd
    # degrees from SERIES_MIN_DEGREE to SERIES_MAX_DEGREE, the poles and 0
    rng = np.random.default_rng(seed)
    t = np.concatenate([rng.uniform(-1.0, 1.0, 50), [1.0, -1.0, 0.0, -0.0]])
    band = simulator._clenshaw(
        simulator._series_coefficients(lam, np.array([n]), np.array([weight])), t[None])[0]
    assert_array_equal(_series_row(lam, n, weight)(t), band)


@pytest.mark.parametrize("n", [SERIES_MIN_DEGREE, 9, 1000, SERIES_MAX_DEGREE])
def test_huge_series_weight_overflows_only_where_the_profile_does(n):
    # the Clenshaw sums of a d = 2 row stay near the unit amplitude
    # G_n(1) = 1, and the weight multiplies them once, so a weight of 1e306
    # gives finite values equal to the weight times the unit-weight row
    weight = 1e306
    t = np.concatenate([np.linspace(-0.999, 0.999, 41), np.cos(np.arange(1, 9) / n)])
    got = _METHODS[SERIES].row(0.5, n, weight)(t)
    assert np.all(np.isfinite(got))
    assert_array_equal(got, weight * _series_row(0.5, n, 1.0)(t))


CASES = {
    "nb d=2": (NegativeBinomial(0.5, d=2), GeometricDegrees(0.01), LatLonGrid(100, 100)),
    "f d=3": (GeneralizedF(1.0, 3.5, 2.0, d=3), ShiftedZeta(2.0), Slice3Grid(0.25, 100, 100)),
}


@settings(max_examples=6, deadline=None)
@given(case=st.sampled_from(sorted(CASES)), seed=st.integers(0, 2**32 - 1))
def test_simulate_matches_scipy_sum_within_bound(case, seed):
    model, degrees, grid_spec = CASES[case]
    points = build_grid(grid_spec).points
    npts = points.shape[0]
    config = SimulationConfig(model, degrees, L=8, seed=seed)
    values = simulate(config, points).values[:, 0]
    lam = 0.5 * (config.d - 1)
    reference = np.zeros(npts)
    allowed = 1e-14
    tabulated = 0
    for i in range(config.L):
        wave = draw_wave(config, wave_rng(seed, i))
        n = wave.degree
        weight = wave.epsilon * wave_weight(config, n)
        t = np.clip(points @ wave.pole, -1.0, 1.0)
        reference += weight * eval_gegenbauer(n, lam, t)
        allowed += tolerance(lam, n) * abs(weight) * np.exp(gegenbauer_log_at_one(lam, n))
        tabulated += _profile_methods(config.d, n, npts) == TABLE
    reference /= np.sqrt(config.L)
    allowed /= np.sqrt(config.L)
    assert np.max(np.abs(values - reference)) <= allowed
    if case == "nb d=2":          # mean degree 99: nearly every wave is tabulated
        assert tabulated > 0
