import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from turnarcs.covariance import (
    BivariateNegativeBinomial,
    BivariateSpectralMatern,
    GeneralizedF,
    ModelError,
    NegativeBinomial,
    SequenceCovariance,
    SequenceMultiCovariance,
)
from turnarcs.degree_sampling import (
    FiniteDegrees,
    GeometricDegrees,
    OddShiftedZeta,
    ShiftedZeta,
)
from turnarcs.gegenbauer import gegenbauer_eval
from turnarcs import simulator
from turnarcs.simulator import (
    PROFILE_ERROR_BOUND,
    Realization,
    SimulationConfig,
    SimulationError,
    WaveParams,
    _profiles_batch,
    clt_marginal_samples,
    draw_wave,
    geodesic,
    sample_pole,
    simulate,
    simulate_ensemble,
    single_wave_values,
    wave_eval_scalar,
    wave_eval_vector,
    wave_rng,
)


def meridian_points(d, thetas):
    """Points at geodesic distance theta from the first axis, along one meridian."""
    pts = np.zeros((len(thetas), d + 1))
    pts[:, 0] = np.cos(thetas)
    pts[:, 1] = np.sin(thetas)
    return pts


# ------------------------------------------------------------------ geometry

def test_geodesic_trivia():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    assert geodesic(e1, e1) == 0.0
    assert geodesic(e1, -e1) == pytest.approx(np.pi)
    assert geodesic(e1, e2) == pytest.approx(np.pi / 2)


def test_sample_pole_norms_and_moments():
    rng = np.random.default_rng(42)
    poles = sample_pole(2, rng, size=100_000)
    assert np.max(np.abs(np.linalg.norm(poles, axis=1) - 1.0)) < 1e-12
    se = 1.0 / np.sqrt(poles.shape[0])       # coordinate variance is 1/3
    assert np.max(np.abs(poles.mean(axis=0))) < 4 * se * np.sqrt(1.0 / 3.0)
    second = (poles[:, 0] ** 2).mean()
    se2 = np.std(poles[:, 0] ** 2) / np.sqrt(poles.shape[0])
    assert abs(second - 1.0 / 3.0) < 4 * se2


# ------------------------------------------------------------------ one wave

def scalar_config(L=1, seed=0):
    return SimulationConfig(
        NegativeBinomial(0.5, d=2), GeometricDegrees(0.3), L=L, seed=seed
    )


def test_scalar_wave_degree_zero_is_constant():
    config = scalar_config()
    wave = WaveParams(epsilon=1, pole=np.array([0.0, 0.0, 1.0]), degree=0)
    points = meridian_points(2, np.linspace(0, np.pi, 9))
    vals = wave_eval_scalar(wave, config, points)
    expected = np.sqrt(0.5 / 0.3)  # sqrt(b_0 / a_0)
    assert_allclose(vals, expected, rtol=1e-14)


def test_scalar_wave_degree_one_at_pole():
    config = scalar_config()
    x = np.array([0.0, 0.0, 1.0])
    wave = WaveParams(epsilon=1, pole=x, degree=1)
    b1, a1 = 0.25, 0.3 * 0.7
    vals = wave_eval_scalar(wave, config, [x])
    assert vals[0] == pytest.approx(np.sqrt(3.0 * b1 / a1), rel=1e-13)


def test_circle_wave_degree_two():
    model = SequenceCovariance([0.5, 0.3, 0.2], d=1)
    config = SimulationConfig(model, FiniteDegrees([1 / 3, 1 / 3, 1 / 3]), L=1, seed=0)
    wave = WaveParams(epsilon=1, pole=np.array([1.0, 0.0]), degree=2)
    x = np.array([0.0, 1.0])  # quarter turn from the pole
    vals = wave_eval_scalar(wave, config, [x])
    assert vals[0] == pytest.approx(-np.sqrt(2.0 * 0.2 / (1 / 3)), rel=1e-13)


def test_circle_wave_degree_zero_single_weight():
    model = SequenceCovariance([0.5, 0.3, 0.2], d=1)
    config = SimulationConfig(model, FiniteDegrees([1 / 3, 1 / 3, 1 / 3]), L=1, seed=0)
    wave = WaveParams(epsilon=1, pole=np.array([1.0, 0.0]), degree=0)
    vals = wave_eval_scalar(wave, config, [[0.0, 1.0]])
    # weight sqrt(b_0/a_0), not sqrt(2 b_0/a_0): the doubled variance the
    # plain prefactor would give at degree zero is corrected away
    assert vals[0] == pytest.approx(np.sqrt(0.5 / (1 / 3)), rel=1e-13)


def test_vector_wave_zero_column_vanishes():
    model = SequenceMultiCovariance([np.diag([1.0, 0.0])], d=2)
    config = SimulationConfig(model, FiniteDegrees([1.0]), L=1, seed=0)
    wave = WaveParams(epsilon=1, pole=np.array([0.0, 0.0, 1.0]), degree=0, component=1)
    vals = wave_eval_vector(wave, config, meridian_points(2, [0.1, 0.7]))
    assert_array_equal(vals, np.zeros((2, 2)))


def test_vector_wave_identity_factor():
    model = SequenceMultiCovariance([np.eye(2)], d=2)
    config = SimulationConfig(model, FiniteDegrees([1.0]), L=1, seed=0)
    wave = WaveParams(epsilon=1, pole=np.array([0.0, 0.0, 1.0]), degree=0, component=0)
    vals = wave_eval_vector(wave, config, meridian_points(2, [0.3, 1.2, 2.0]))
    assert_allclose(vals[:, 0], np.sqrt(2.0), rtol=1e-14)   # sqrt(p/a_0), a_0 = 1
    assert_array_equal(vals[:, 1], np.zeros(3))


def test_vector_wave_component_sum_identity():
    # summing Z(x) Z(y)^T over the component index at fixed (eps, pole, kappa)
    # reassembles B_k from the factor columns:
    # sum_i = p (2k+d-1) / (a (d-1)) * B_k * G_k(w.x) G_k(w.y)
    model = BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6)
    config = SimulationConfig(model, GeometricDegrees(0.3), L=1, seed=0)
    pole = sample_pole(2, np.random.default_rng(5))
    x = meridian_points(2, [0.4])
    y = meridian_points(2, [1.3])
    p = 2
    for kappa in (0, 1, 3):
        acc = np.zeros((2, 2))
        for comp in range(p):
            wave = WaveParams(epsilon=1, pole=pole, degree=kappa, component=comp)
            zx = wave_eval_vector(wave, config, x)[0]
            zy = wave_eval_vector(wave, config, y)[0]
            acc += np.outer(zx, zy)
        a = config.degrees.pmf(kappa)
        gk = gegenbauer_eval(
            0.5, kappa, float(np.clip(x[0] @ pole, -1, 1))
        ) * gegenbauer_eval(0.5, kappa, float(np.clip(y[0] @ pole, -1, 1)))
        expected = p * (2 * kappa + 1) / a * model.schoenberg_matrix(kappa) * gk
        assert_allclose(acc, expected, rtol=1e-12, atol=1e-15)


def test_wave_rejects_unsupported_degree():
    model = SequenceCovariance([0.5, 0.5], d=2)
    config = SimulationConfig(model, FiniteDegrees([0.5, 0.5]), L=1, seed=0)
    wave = WaveParams(epsilon=1, pole=np.array([0.0, 0.0, 1.0]), degree=7)
    with pytest.raises(SimulationError):
        wave_eval_scalar(wave, config, meridian_points(2, [0.1]))


# ------------------------------------------------------------------ simulate

def test_config_rejects_uncovered_support():
    with pytest.raises(SimulationError):
        SimulationConfig(NegativeBinomial(0.5, d=2), OddShiftedZeta(2.0), L=10, seed=0)


def test_simulate_single_wave_identity():
    config = scalar_config(L=1, seed=123)
    points = meridian_points(2, np.linspace(0.0, np.pi, 7))
    out = simulate(config, points)
    wave = draw_wave(config, wave_rng(config.seed, 0))
    expected = wave_eval_scalar(wave, config, points)
    assert_array_equal(out.values[:, 0], expected)


def test_simulate_deterministic():
    config = scalar_config(L=40, seed=7)
    points = meridian_points(2, np.linspace(0.0, np.pi, 11))
    a = simulate(config, points)
    b = simulate(config, points)
    assert_array_equal(a.values, b.values)


def test_simulate_threads_match_sequential():
    config = scalar_config(L=150, seed=99)
    points = meridian_points(2, np.linspace(0.0, np.pi, 23))
    seq = simulate(config, points)
    par2 = simulate(config, points, n_threads=2)
    par4 = simulate(config, points, n_threads=4)
    assert_array_equal(seq.values, par2.values)
    assert_array_equal(seq.values, par4.values)


def test_simulate_threads_match_sequential_bivariate():
    model = BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6)
    config = SimulationConfig(model, GeometricDegrees(0.05), L=100, seed=17)
    points = meridian_points(2, np.linspace(0.0, np.pi, 9))
    seq = simulate(config, points)
    par = simulate(config, points, n_threads=2)
    assert_array_equal(seq.values, par.values)
    assert seq.values.shape == (9, 2)


def test_simulate_metadata():
    config = scalar_config(L=3, seed=5)
    out = simulate(config, meridian_points(2, [0.2]))
    assert out.metadata["L"] == 3
    assert out.metadata["seed"] == 5
    assert out.metadata["model"] == "nb(delta=0.5, d=2)"
    assert isinstance(out, Realization)


def test_points_must_be_unit_norm():
    config = scalar_config()
    with pytest.raises(SimulationError):
        simulate(config, np.array([[1.0, 1.0, 0.0]]))


def test_simulate_metadata_records_profile_error_bound():
    out = simulate(scalar_config(L=3, seed=5), meridian_points(2, [0.2]))
    assert out.metadata["profile_error_bound"] == PROFILE_ERROR_BOUND
    assert 1e-9 < PROFILE_ERROR_BOUND < 1.3e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_points_must_be_finite(bad):
    # a NaN norm compares False against any tolerance; every entry point
    # must reject it before any point work, not return NaN values
    config = scalar_config(L=4)
    points = meridian_points(2, [0.2, 1.0])
    points[1, 2] = bad
    wave = WaveParams(epsilon=1, pole=np.array([0.0, 0.0, 1.0]), degree=0)
    rng = np.random.default_rng(0)
    calls = [
        lambda: simulate(config, points),
        lambda: wave_eval_scalar(wave, config, points),
        lambda: single_wave_values(config, points, 10, rng),
        lambda: simulate_ensemble(config, points, 3, rng),
    ]
    for call in calls:
        with pytest.raises(SimulationError, match="finite coordinates"):
            call()


def test_simulate_checks_points_once(monkeypatch):
    calls = []
    real = simulator.check_points

    def counting(points, d):
        calls.append(d)
        return real(points, d)

    monkeypatch.setattr(simulator, "check_points", counting)
    config = scalar_config(L=70, seed=2)
    simulate(config, meridian_points(2, [0.1, 2.0]), n_threads=2)
    assert calls == [2]


def test_indefinite_model_fails_before_any_wave_is_evaluated(monkeypatch):
    # example 2 as printed: indefinite Schoenberg matrices from degree 2 on;
    # the wave plan is drawn and factored first, so no wave is evaluated
    calls = []
    real = simulator._wave_profile

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(simulator, "_wave_profile", counting)
    model = BivariateSpectralMatern(1.0, 2.0, 0.75, 0.75, rho=-0.6,
                                    allow_unverified_cross=True)
    config = SimulationConfig(model, ShiftedZeta(2.0), L=1500, seed=2)
    with pytest.raises(ModelError, match="not positive semidefinite"):
        simulate(config, meridian_points(2, [0.1, 2.0]))
    assert calls == []


def test_empty_point_set_fails_cleanly():
    config = scalar_config(L=4)
    empty = np.empty((0, 3))
    rng = np.random.default_rng(0)
    calls = [
        lambda: simulator.check_points(empty, 2),
        lambda: simulate(config, empty),
        lambda: single_wave_values(config, empty, 5, rng),
    ]
    for call in calls:
        with pytest.raises(SimulationError, match="at least one point"):
            call()


def test_simulate_odd_degree_model_end_to_end():
    from turnarcs.covariance import Chentsov

    config = SimulationConfig(Chentsov(d=2), OddShiftedZeta(2.0), L=30, seed=13)
    points = meridian_points(2, np.linspace(0.1, 3.0, 6))
    out = simulate(config, points)
    assert np.all(np.isfinite(out.values))
    again = simulate(config, points)
    assert_array_equal(out.values, again.values)


def test_huge_degree_wave_high_dimension_stays_finite():
    # on the 256-sphere the raw polynomial value overflows doubles from
    # degree ~1400 on, but the weighted wave amplitude is representable; the
    # weight rides in the recurrence seeds so the evaluation must stay finite
    from turnarcs.covariance import Chentsov
    from turnarcs.degree_sampling import OddShiftedZeta

    d = 256
    config = SimulationConfig(Chentsov(d=d), OddShiftedZeta(2.0), L=1, seed=0)
    rng = np.random.default_rng(0)
    pole = sample_pole(d, rng)
    points = np.vstack([pole, sample_pole(d, rng, size=3)])
    for kappa in (2001, 4001):
        wave = WaveParams(epsilon=1, pole=pole, degree=kappa)
        vals = wave_eval_scalar(wave, config, points)
        assert np.all(np.isfinite(vals))
        assert np.abs(vals).max() > 0.0


def test_profiles_batch_scaled_matches_plain():
    rng = np.random.default_rng(2)
    kappas = rng.integers(0, 30, size=100).astype(np.int64)
    t = rng.uniform(-1, 1, size=(100, 4))
    scale = rng.normal(size=100)
    scaled = _profiles_batch(3, kappas, t, scale)
    plain = _profiles_batch(3, kappas, t)
    assert_allclose(scaled, scale[:, None] * plain, rtol=1e-12, atol=1e-12)


def test_simulate_masks_wide_seeds():
    # seeds beyond 64 bits are folded into the counter-based key, not rejected
    points = meridian_points(2, [0.5, 1.5])
    wide = simulate(scalar_config(L=4, seed=2**70 + 5), points)
    folded = simulate(scalar_config(L=4, seed=5), points)
    assert_array_equal(wide.values, folded.values)


# ---------------------------------------------------------------- batch paths

def test_profiles_batch_matches_direct_eval():
    rng = np.random.default_rng(1)
    kappas = rng.integers(0, 40, size=200).astype(np.int64)
    t = rng.uniform(-1.0, 1.0, size=(200, 5))
    for d in (2, 3, 5):
        profiles = _profiles_batch(d, kappas, t)
        lam = 0.5 * (d - 1)
        for i in (0, 3, 57, 199):
            assert_allclose(
                profiles[i],
                gegenbauer_eval(lam, int(kappas[i]), t[i]),
                rtol=1e-12, atol=1e-12,
            )


SAME_WAVE_CASES = {
    "nb d=2": lambda: SimulationConfig(NegativeBinomial(0.5, d=2), GeometricDegrees(0.05), L=1, seed=0),
    "circle": lambda: SimulationConfig(SequenceCovariance([0.5, 0.3, 0.2], d=1),
                                       FiniteDegrees([0.4, 0.3, 0.3]), L=1, seed=0),
    "f d=3": lambda: SimulationConfig(GeneralizedF(1.0, 3.5, 2.0, d=3), ShiftedZeta(2.0), L=1, seed=0),
    "bivariate nb d=2": lambda: SimulationConfig(BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6),
                                                 GeometricDegrees(0.05), L=1, seed=0),
}


@pytest.mark.parametrize("case", sorted(SAME_WAVE_CASES))
def test_single_wave_rows_equal_wave_eval_bitwise(case):
    # the batched path and the per-wave path share the projection, the
    # weights and the recurrence: replaying the batch's (epsilon, pole,
    # kappa, iota) through wave_eval_* must give the same doubles
    config = SAME_WAVE_CASES[case]()
    d, p, M = config.d, config.p, 60
    rng = np.random.default_rng(11)
    points = np.vstack([meridian_points(d, np.linspace(0.0, np.pi, 5)),
                        sample_pole(d, rng, size=4)])
    waves = single_wave_values(config, points, M, np.random.default_rng(3))
    replay = np.random.default_rng(3)
    eps = replay.integers(0, 2, size=M) * 2 - 1
    poles = sample_pole(d, replay, size=M)
    kappas = config.degrees.sample(replay, size=M)
    iotas = replay.integers(0, p, size=M) if p > 1 else [None] * M
    assert len(set(kappas.tolist())) > 1
    for i in range(M):
        wave = WaveParams(int(eps[i]), poles[i], int(kappas[i]), iotas[i])
        if p == 1:
            assert_array_equal(waves[i, :, 0], wave_eval_scalar(wave, config, points))
        else:
            assert_array_equal(waves[i], wave_eval_vector(wave, config, points))


def test_single_wave_zero_mean():
    config = scalar_config()
    points = meridian_points(2, [0.0, 1.0, 2.5])
    rng = np.random.default_rng(8)
    waves = single_wave_values(config, points, 20_000, rng)[:, :, 0]
    se = waves.std(axis=0) / np.sqrt(waves.shape[0])
    assert np.all(np.abs(waves.mean(axis=0)) < 4 * se)


def test_single_wave_covariance_nb():
    config = scalar_config(seed=0)
    thetas = np.array([0.0, 0.7, 1.6, 2.8])
    points = meridian_points(2, thetas)
    rng = np.random.default_rng(21)
    waves = single_wave_values(config, points, 40_000, rng)[:, :, 0]
    prods = waves[:, [0]] * waves
    mc = prods.mean(axis=0)
    se = prods.std(axis=0) / np.sqrt(prods.shape[0])
    expected = NegativeBinomial(0.5, d=2).covariance(thetas)
    assert np.all(np.abs(mc - expected) < 4 * se)


def test_single_wave_covariance_circle_with_degree_zero():
    # exercises the degree-0 weight correction: without it the variance at
    # lag zero would come out 0.5 too high
    model = SequenceCovariance([0.5, 0.3, 0.2], d=1)
    config = SimulationConfig(model, FiniteDegrees([0.4, 0.3, 0.3]), L=1, seed=0)
    thetas = np.array([0.0, np.pi / 3, np.pi / 2, 2.5])
    points = meridian_points(1, thetas)
    rng = np.random.default_rng(31)
    waves = single_wave_values(config, points, 60_000, rng)[:, :, 0]
    prods = waves[:, [0]] * waves
    mc = prods.mean(axis=0)
    se = prods.std(axis=0) / np.sqrt(prods.shape[0])
    expected = model.covariance(thetas)
    assert np.all(np.abs(mc - expected) < 4 * se)


def test_single_wave_cross_covariance_bivariate():
    model = BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6)
    config = SimulationConfig(model, GeometricDegrees(0.01), L=1, seed=0)
    x = meridian_points(2, [0.0])
    rng = np.random.default_rng(77)
    waves = single_wave_values(config, x, 60_000, rng)[:, 0, :]
    cross = waves[:, 0] * waves[:, 1]
    se = cross.std() / np.sqrt(cross.size)
    assert abs(cross.mean() - 0.6) < 4 * se  # rho * K_NB(0; delta12) = 0.6


def test_ensemble_variance_independent_of_L():
    points = meridian_points(2, [0.9])
    estimates = {}
    for L in (1, 15, 150):
        config = scalar_config(L=L)
        rng = np.random.default_rng(L)
        vals = simulate_ensemble(config, points, 4000, rng)[:, 0, 0]
        estimates[L] = (vals.var(ddof=1), vals.size)
    for L, (var, m) in estimates.items():
        # chi-square-ish spread of a variance estimate: sd ~ var * sqrt(2/m),
        # inflated because single waves are leptokurtic
        assert abs(var - 1.0) < 10.0 * np.sqrt(2.0 / m), (L, var)


def test_ensemble_variance_at_point():
    # empirical variance of the ensemble value matches K(0) = 1
    config = SimulationConfig(
        NegativeBinomial(0.5, d=2), GeometricDegrees(0.01), L=500, seed=0
    )
    rng = np.random.default_rng(500)
    vals = simulate_ensemble(config, meridian_points(2, [0.4]), 200, rng)[:, 0, 0]
    var = vals.var(ddof=1)
    se = var * np.sqrt(2.0 / (vals.size - 1))
    assert abs(var - 1.0) < 4 * se


def test_clt_marginal_samples_shape_and_scale():
    config = scalar_config(L=25, seed=3)
    rng = np.random.default_rng(55)
    samples = clt_marginal_samples(config, [1.0, 0.0, 0.0], 4000, rng)
    assert samples.shape == (4000,)
    assert abs(samples.var(ddof=1) - 1.0) < 0.15
