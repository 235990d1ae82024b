import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn

from turnarcs.covariance import (
    Chentsov,
    NegativeBinomial,
    SequenceCovariance,
)
from turnarcs.degree_sampling import (
    FiniteDegrees,
    GeometricDegrees,
    OddShiftedZeta,
    ShiftedZeta,
)
from turnarcs import diagnostics
from turnarcs.diagnostics import (
    XI,
    Mu3Result,
    berry_esseen_bound,
    berry_esseen_report,
    duplication_check,
    empirical_covariance,
    gegenbauer_abs_moment,
    ks_normality,
    mu3_gegenbauer,
    mu3_wave,
    pair_lag_bins,
)
from turnarcs.gegenbauer import gegenbauer_at_one
from turnarcs.grids import build_grid, parse_grid
from turnarcs.simulator import SimulationConfig, SimulationError, simulate_ensemble


def meridian_points(d, thetas):
    pts = np.zeros((len(thetas), d + 1))
    pts[:, 0] = np.cos(thetas)
    pts[:, 1] = np.sin(thetas)
    return pts


# ------------------------------------------------------------- mu3 quadrature

def test_mu3_degree_zero():
    assert mu3_gegenbauer(0, 2) == pytest.approx(1.0, rel=1e-10)
    assert mu3_gegenbauer(0, 3) == pytest.approx(1.0, rel=1e-10)


def test_mu3_d2_closed_form_bound():
    # the envelope bound |P_n(cos phi)| <= sqrt(2/(n pi sin phi)) gives
    # mu3 <= (2/(n pi))^(3/2) * int_0^(pi/2) sin^(-1/2), and the integral is
    # (sqrt(pi)/2) Gamma(1/4)/Gamma(3/4) = 2.622...  (the scaled sequence
    # actually converges to ~0.565, so this is the binding closed form)
    const = (2.0 / np.pi) ** 1.5 * 0.5 * np.sqrt(np.pi) * gamma_fn(0.25) / gamma_fn(0.75)
    for n in (4, 16, 64):
        assert mu3_gegenbauer(n, 2) * n**1.5 <= const


def test_mu3_d2_monotone_decay():
    vals = [mu3_gegenbauer(n, 2) for n in (4, 8, 16, 32, 64, 128, 256, 512)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_mu3_d3_log_growth():
    # mu3 / log n must not grow along the sampled sequence
    ratios = [mu3_gegenbauer(n, 3) / np.log(n) for n in (32, 128, 512)]
    assert all(b <= a * 1.05 for a, b in zip(ratios, ratios[1:]))


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 12])
def test_second_moment_matches_duplication_value(n, d):
    # E[G_n^2] has the independent closed value (d-1)/(2n+d-1) G_n(1)
    lam = 0.5 * (d - 1)
    expected = (d - 1.0) / (2.0 * n + d - 1.0) * gegenbauer_at_one(lam, n)
    assert gegenbauer_abs_moment(n, d, 2) == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 4, 17])
def test_jensen_floor(n, d):
    floor = gegenbauer_abs_moment(n, d, 2) ** 1.5
    assert mu3_gegenbauer(n, d) >= floor * (1.0 - 1e-10)


# ------------------------------------------------------------------- mu3_wave

def test_mu3_wave_single_degree():
    d, n0, b = 3, 4, 0.7
    spec = SequenceCovariance([0.0] * n0 + [b], d=d)
    dist = FiniteDegrees([0.0] * n0 + [1.0])
    out = mu3_wave(spec, dist)
    expected = (
        (d - 1.0) ** -1.5 * b**1.5 * (2.0 * n0 + d - 1.0) ** 1.5 * mu3_gegenbauer(n0, d)
    )
    assert out.value == pytest.approx(expected, rel=1e-10)
    assert out.finite
    assert out.tail_bound == 0.0


def test_mu3_wave_nb_geometric_converges():
    spec = NegativeBinomial(0.5, d=2)
    dist = GeometricDegrees(0.01)
    base = mu3_wave(spec, dist)
    assert base.finite
    assert base.relative_tail < 1e-4
    doubled = mu3_wave(spec, dist, n_max=2 * base.n_max)
    assert abs(doubled.value - base.value) < 1e-4 * base.value


def test_mu3_wave_full_support_law_over_odd_model():
    # a full-support law is admissible for the odd-degree model; the tail
    # bound must anchor on the last loaded degree, not on a vanishing even one
    full = mu3_wave(Chentsov(d=2), ShiftedZeta(2.0), n_max=128)
    odd = mu3_wave(Chentsov(d=2), OddShiftedZeta(2.0), n_max=128)
    assert full.finite and odd.finite
    assert full.tail_bound > 0.0
    assert odd.tail_bound > 0.0


def test_mu3_wave_divergence_flag():
    out = mu3_wave(Chentsov(d=8), OddShiftedZeta(2.0))
    assert not out.finite
    assert np.isinf(out.value)


def _log_space_mu3(spec, dist, degrees):
    """The moment series written term by term in log space,
    b^1.5 (2n+d-1)^1.5 a^-0.5 (d-1)^-1.5 mu3_gegenbauer(n), independently of
    the simulator's wave weights."""
    d, total = spec.d, 0.0
    for n in degrees:
        log_b, log_a = float(spec.log_schoenberg_coeff(n)), float(dist.log_pmf(n))
        if log_b == -np.inf or log_a == -np.inf:
            continue
        log_t = (1.5 * log_b + 1.5 * np.log(2.0 * n + d - 1.0) - 0.5 * log_a
                 - 1.5 * np.log(d - 1.0))
        total += np.exp(log_t) * mu3_gegenbauer(n, d)
    return total


FINITE_PMF = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=7).filter(any)


@settings(max_examples=60, deadline=None)
@given(
    coeffs=FINITE_PMF,
    weights=FINITE_PMF,
    d=st.integers(2, 6),
    pairing=st.sampled_from(["both finite", "finite model", "finite law"]),
)
def test_mu3_wave_matches_log_space_terms(coeffs, weights, d, pairing):
    spec = (NegativeBinomial(0.4, d=d) if pairing == "finite law"
            else SequenceCovariance(coeffs, d=d))
    dist = (ShiftedZeta(2.0) if pairing == "finite model"
            else FiniteDegrees(np.array(weights) / np.sum(weights)))
    n_last = len(coeffs) - 1 if pairing != "finite law" else len(weights) - 1
    out = mu3_wave(spec, dist)
    expected = _log_space_mu3(spec, dist, range(n_last + 1))
    assert out.finite and out.tail_bound == 0.0
    assert out.value == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_mu3_wave_rejects_circle():
    with pytest.raises(ValueError):
        mu3_wave(SequenceCovariance([1.0], d=1), FiniteDegrees([1.0]))


# ------------------------------------------------------------ the bound itself

def test_bound_arithmetic():
    assert berry_esseen_bound(1.0, 1.0, 1500) == pytest.approx(0.4748 / np.sqrt(1500))
    assert berry_esseen_bound(8.0, 2.0, 1) == pytest.approx(XI)  # mu3 = sigma^3
    assert berry_esseen_bound(1.0, 1.0, 400) == pytest.approx(
        0.5 * berry_esseen_bound(1.0, 1.0, 100)
    )


def test_bound_scale_invariance():
    for c in (0.25, 3.0):
        assert berry_esseen_bound(c**3 * 2.0, c * 1.3, 77) == pytest.approx(
            berry_esseen_bound(2.0, 1.3, 77), rel=1e-13
        )


def test_zero_sum_with_a_tail_has_an_infinite_relative_tail():
    assert Mu3Result(value=0.0, tail_bound=np.inf, n_max=0, finite=True).relative_tail == np.inf
    assert Mu3Result(value=0.0, tail_bound=0.0, n_max=0, finite=True).relative_tail == 0.0
    assert Mu3Result(value=2.0, tail_bound=1.0, n_max=9, finite=True).relative_tail == 0.5


def test_report_rejects_a_law_that_cannot_simulate_the_model(monkeypatch):
    # SimulationConfig's check, before any quadrature; mu3_wave itself still
    # sums such pairs (test_mu3_wave_matches_log_space_terms)
    monkeypatch.setattr(diagnostics, "mu3_wave", None)
    monkeypatch.setattr(diagnostics, "mu3_gegenbauer", None)
    with pytest.raises(SimulationError, match="no mass to degree 2, which the model loads"):
        berry_esseen_report(NegativeBinomial(0.5, d=2), FiniteDegrees([0.5, 0.5]), L=1500)
    with pytest.raises(SimulationError, match="no mass to degree 0"):
        berry_esseen_report(NegativeBinomial(0.5, d=2), OddShiftedZeta(2.0), L=1500)


@pytest.mark.parametrize("L", [0, -4, 2.5, "3", None])
def test_report_rejects_a_wave_count_below_one_before_any_quadrature(monkeypatch, L):
    # SimulationConfig's count rule, with its message, before mu3 is summed:
    # the law's series converges, so the report used to come back with L = 0
    monkeypatch.setattr(diagnostics, "mu3_wave", None)
    monkeypatch.setattr(diagnostics, "mu3_gegenbauer", None)
    with pytest.raises(SimulationError, match="wave count must be an integer >= 1"):
        berry_esseen_report(NegativeBinomial(0.5), GeometricDegrees(0.9), L)
    with pytest.raises(SimulationError, match="wave count must be an integer >= 1"):
        SimulationConfig(NegativeBinomial(0.5), GeometricDegrees(0.9), L, seed=0)


def test_report_builder():
    spec = NegativeBinomial(0.5, d=2)
    report = berry_esseen_report(spec, GeometricDegrees(0.01), L=1500)
    assert report.sigma == pytest.approx(1.0)
    assert report.bound == pytest.approx(
        XI * report.mu3.value / np.sqrt(1500), rel=1e-12
    )


# --------------------------------------------------------------- KS statistic

def test_ks_normal_draws():
    rng = np.random.default_rng(2024)
    samples = rng.normal(size=100_000)
    # 95% critical value at this size is about 1.36/sqrt(n)
    assert ks_normality(samples, 1.0) < 1.36 / np.sqrt(samples.size)


def test_ks_constant_samples():
    assert ks_normality(np.full(200, 0.7), 1.0) >= 0.5


def test_ks_input_checks():
    with pytest.raises(ValueError):
        ks_normality(np.zeros(10), 1.0)
    with pytest.raises(ValueError):
        ks_normality(np.zeros(200), 0.0)


def test_ks_scaling():
    rng = np.random.default_rng(5)
    samples = rng.normal(scale=3.0, size=5000)
    assert ks_normality(samples, 3.0) < 0.03
    assert ks_normality(samples, 1.0) > 0.2


# ------------------------------------------------------------------ duplication

def test_duplication_degree_zero():
    rng = np.random.default_rng(0)
    out = duplication_check(0, 0, 2, [1, 0, 0], [0, 1, 0], 10_000, rng)
    assert out.mc_mean == pytest.approx(1.0)
    assert out.analytic == pytest.approx(1.0)
    assert out.se == 0.0


def test_duplication_off_diagonal_vanishes():
    rng = np.random.default_rng(1)
    out = duplication_check(1, 0, 2, [1, 0, 0], [0, 1, 0], 50_000, rng)
    assert out.analytic == 0.0
    assert abs(out.mc_mean) < 4 * out.se


def test_duplication_diagonal_value():
    rng = np.random.default_rng(2)
    x1 = np.array([1.0, 0.0, 0.0])
    x2 = np.array([0.5, np.sqrt(0.75), 0.0])   # x1.x2 = 0.5
    out = duplication_check(1, 1, 2, x1, x2, 200_000, rng)
    assert out.analytic == pytest.approx(0.5 / 3.0, rel=1e-12)
    assert abs(out.mc_mean - out.analytic) < 4 * out.se


# ------------------------------------------------------- empirical covariance

def test_constant_field_estimate():
    model = SequenceCovariance([0.5], d=2)
    config = SimulationConfig(model, FiniteDegrees([1.0]), L=1, seed=0)
    points = meridian_points(2, [0.0, 0.9, 2.1])
    rng = np.random.default_rng(9)
    values = simulate_ensemble(config, points, 400, rng)
    pairs = [(0, 0), (0, 1), (0, 2), (1, 2)]
    est = empirical_covariance(values, pairs, bins=6, points=points)
    for b in range(6):
        if est.counts[b] == 0:
            continue
        # the degree-0 field has identical products in every realization,
        # so the SE is exactly zero; allow rounding
        assert abs(est.estimate[b, 0, 0] - 0.5) < 4 * est.se[b, 0, 0] + 1e-12


def test_empirical_covariance_matches_model():
    spec = NegativeBinomial(0.5, d=2)
    config = SimulationConfig(spec, GeometricDegrees(0.05), L=50, seed=0)
    thetas = np.linspace(0.0, np.pi, 9)
    points = meridian_points(2, thetas)
    rng = np.random.default_rng(123)
    values = simulate_ensemble(config, points, 300, rng)
    pairs = [(0, j) for j in range(9)]
    est = empirical_covariance(values, pairs, bins=18, points=points)
    for b in range(18):
        if est.counts[b] == 0:
            continue
        theory = spec.covariance(est.bin_centers[b])
        # bin center vs true pair lag differs by up to half a bin; widen via SE
        assert abs(est.estimate[b, 0, 0] - theory) < 4 * est.se[b, 0, 0] + 0.02


def test_empirical_covariance_symmetries():
    rng = np.random.default_rng(3)
    points = meridian_points(2, [0.2, 1.0, 2.0])
    values = rng.normal(size=(50, 3, 2))
    a = empirical_covariance(values, [(0, 1), (1, 2)], bins=4, points=points)
    b = empirical_covariance(values, [(1, 0), (2, 1)], bins=4, points=points)
    np.testing.assert_allclose(a.estimate, b.estimate, atol=1e-15)
    for est in (a, b):
        valid = ~np.isnan(est.estimate)
        np.testing.assert_allclose(
            est.estimate[valid], np.transpose(est.estimate, (0, 2, 1))[valid]
        )


def test_empirical_covariance_bin_estimate_ignores_the_other_bins():
    rng = np.random.default_rng(7)
    points = meridian_points(2, [0.0, 0.3, 1.8])
    values = rng.normal(size=(20, 3, 1))
    est = empirical_covariance(values, [(0, 1), (0, 2)], 2, points)
    assert est.counts.tolist() == [1, 1]
    only = empirical_covariance(values, [(0, 1)], 2, points)
    assert only.counts.tolist() == [1, 0]
    assert np.isnan(only.estimate[1]).all()
    np.testing.assert_array_equal(est.estimate[0], only.estimate[0])


def test_empirical_covariance_last_edge_closes_the_last_bin():
    points = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    values = np.random.default_rng(8).normal(size=(10, 3, 1))
    lags, idx = pair_lag_bins(points, [(0, 1), (0, 2)], 2)
    assert lags.tolist() == [np.pi, 0.5 * np.pi]
    assert idx.tolist() == [1, 1]
    est = empirical_covariance(values, [(0, 1), (0, 2)], bins=2, points=points)
    assert est.counts.tolist() == [0, 2]


@pytest.mark.parametrize("n, bins, below", [(20, 20, 38), (40, 20, 95), (10, 20, 13),
                                            (20, 8, 2), (40, 16, 16)])
def test_meridian_pair_lags_bin_by_exact_grid_geometry(n, bins, below):
    # pairs k rows apart on one meridian of latlon:n x 4 lie k pi / n apart,
    # so their bin is floor(k bins / n); arccos puts `below` of their lags
    # up to 1e-15 under an edge, which used to drop them a bin
    points = build_grid(parse_grid(f"latlon:{n}x4")).points[::4]
    i, j = np.triu_indices(n)
    lags, idx = pair_lag_bins(points, np.column_stack([i, j]), bins)
    exact = (j - i) * bins // n
    edges = np.linspace(0.0, np.pi, bins + 1)
    assert np.count_nonzero(lags < edges[exact]) == below
    np.testing.assert_array_equal(idx, exact)


@pytest.mark.parametrize("bins", [
    0,
    [0.0, 1.0, 0.5],            # decreasing
    [0.0, 1.0, 1.0, 2.0],       # repeated edge
    [-0.1, 1.0],                # below 0
    [0.0, 1.0, 3.5],            # beyond pi
    [1.0],                      # no bin
    [0.0, np.nan, 1.0],
])
def test_empirical_covariance_rejects_bad_bins(bins):
    # bins is a count of equal-width bins; edge lists are not accepted
    points = meridian_points(2, [0.0, 1.0])
    with pytest.raises(ValueError, match="bins must be a positive count of lag bins, got "):
        empirical_covariance(np.zeros((3, 2, 1)), [(0, 1)], bins=bins, points=points)


@pytest.mark.parametrize("pairs", [[(0, 2)], [(-1, 0)], [(0, 1, 1)]])
def test_pair_lag_bins_rejects_pairs_off_the_points(pairs):
    points = meridian_points(2, [0.0, 1.0])
    with pytest.raises(ValueError, match="^pairs must be valid point-index pairs$"):
        pair_lag_bins(points, pairs, 4)


@pytest.mark.parametrize("call, message", [
    (lambda: gegenbauer_abs_moment(3, 1), "sphere dimension must be >= 2"),
    (lambda: gegenbauer_abs_moment(-1, 2), "degree must be nonnegative"),
    (lambda: berry_esseen_bound(0.0, 1.0, 10), "need mu3 > 0, sigma > 0 and L >= 1"),
    (lambda: berry_esseen_bound(1.0, 1.0, 0), "need mu3 > 0, sigma > 0 and L >= 1"),
    (lambda: duplication_check(1, 1, 1, [1.0, 0.0], [0.0, 1.0], 10_000,
                               np.random.default_rng(0)), "sphere dimension must be >= 2"),
    (lambda: duplication_check(1, 1, 2, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 9_999,
                               np.random.default_rng(0)), "need at least 1e4 pole draws"),
], ids=["abs-moment-sphere", "abs-moment-degree", "bound-mu3", "bound-L",
        "duplication-sphere", "duplication-draws"])
def test_moment_and_identity_checks_name_the_argument(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message


def test_empirical_covariance_needs_two_realizations():
    points = meridian_points(2, [0.0, 1.0])
    with pytest.raises(ValueError):
        empirical_covariance(np.zeros((1, 2, 1)), [(0, 1)], bins=5, points=points)
