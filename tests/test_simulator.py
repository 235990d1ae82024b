import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

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
)
from turnarcs.cli import main
from turnarcs.degree_sampling import (
    FiniteDegrees,
    GeometricDegrees,
    OddShiftedZeta,
    ShiftedZeta,
)
from turnarcs.gegenbauer import gegenbauer_eval
from turnarcs.grids import LatLonGrid, build_grid, parse_grid
from turnarcs import degree_sampling, simulator
from conftest import great_circle, projections, wave_profiles
from turnarcs.simulator import (
    PROFILE_ERROR_BOUND,
    SERIES_ERROR_BOUND,
    WAVE_GROUP,
    Realization,
    SimulationConfig,
    SimulationError,
    WaveParams,
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


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 256), seed=st.integers(0, 2**64 - 1))
@example(d=1, seed=0)
@example(d=7, seed=1)      # d + 1 = 8: the first length summed pairwise
@example(d=256, seed=2)
def test_one_pole_is_the_first_row_of_a_batch(d, seed):
    # one pole (size=None) is row 0 of a batch of one: the batch's doubles,
    # and the stream left where the batch leaves it
    one, batch = np.random.default_rng(seed), np.random.default_rng(seed)
    pole = sample_pole(d, one)
    assert pole.shape == (d + 1,)
    assert pole.tobytes() == sample_pole(d, batch, size=1)[0].tobytes()
    assert one.random() == batch.random()


class ScriptedNormals:
    """A stream whose normal draws are given in advance, row by row."""

    def __init__(self, rows):
        self.rows = [np.asarray(r, dtype=float) for r in rows]

    def normal(self, size):
        n = size[0] if isinstance(size, tuple) and len(size) == 2 else 1
        out = np.array(self.rows[:n])
        del self.rows[:n]
        return out.reshape(size)


def test_degenerate_pole_draws_are_redrawn_alike():
    rows = [[0.0, 1e-200, 0.0], [0.0, 0.0, 0.0], [3.0, 0.0, 4.0]]
    one, batch = ScriptedNormals(rows), ScriptedNormals(rows)
    pole = sample_pole(2, one)
    assert_array_equal(pole, [0.6, 0.0, 0.8])
    assert_array_equal(sample_pole(2, batch, size=1)[0], pole)
    assert one.rows == batch.rows == []


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


def replay_reads_no_point(monkeypatch, wave, message):
    """wave_eval_scalar and wave_eval_vector on the 2-sphere both reject
    the wave with message, before the points are checked or a wave is
    evaluated."""
    calls = count_wave_work(monkeypatch)
    monkeypatch.setattr(simulator, "check_points", lambda *args: calls.append(args))
    scalar = SimulationConfig(SequenceCovariance([0.5, 0.5], d=2), FiniteDegrees([0.5, 0.5]),
                              L=1, seed=0)
    vector = SimulationConfig(BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6),
                              GeometricDegrees(0.3), L=1, seed=0)
    points = meridian_points(2, [0.1, 1.0])
    with pytest.raises(SimulationError, match=message):
        wave_eval_scalar(wave, scalar, points)
    wave.component = 0
    with pytest.raises(SimulationError, match=message):
        wave_eval_vector(wave, vector, points)
    assert calls == []


@pytest.mark.parametrize("epsilon", [3, 0, -2, 0.5, np.nan])
def test_replay_rejects_a_sign_other_than_one(monkeypatch, epsilon):
    # epsilon = 3 used to triple the wave
    wave = WaveParams(epsilon=epsilon, pole=np.array([0.0, 0.0, 1.0]), degree=1)
    replay_reads_no_point(monkeypatch, wave, "wave sign must be")


@pytest.mark.parametrize("pole", [[0.0, 1.0], [0.0, 0.0, 0.0, 1.0], [[0.0, 0.0, 1.0]],
                                  [np.nan, 0.0, 1.0], [0.0, np.inf, 0.0]])
def test_replay_rejects_a_pole_without_d_plus_one_finite_coordinates(monkeypatch, pole):
    # a short pole used to raise numpy's matmul ValueError
    wave = WaveParams(epsilon=1, pole=np.array(pole), degree=1)
    replay_reads_no_point(monkeypatch, wave, "wave pole must have 3 finite coordinates")


@pytest.mark.parametrize("scale", [2.0, 0.0, 1.0 + 2e-12, 1.0 - 2e-12])
def test_replay_rejects_a_pole_off_the_sphere(monkeypatch, scale):
    # a pole of norm 2 used to be accepted, its projections clipped
    wave = WaveParams(epsilon=1, pole=scale * np.array([0.0, 0.6, 0.8]), degree=1)
    replay_reads_no_point(monkeypatch, wave, "unit norm within 1e-12")


@pytest.mark.parametrize("degree", [2**70, 2**63, -1, 3.7, 3.0, "3", None])
def test_replay_rejects_a_degree_that_is_no_int64(monkeypatch, degree):
    # 2**70 used to raise an uncaught OverflowError, 3.7 an islice ValueError
    wave = WaveParams(epsilon=1, pole=np.array([0.0, 0.0, 1.0]), degree=degree)
    replay_reads_no_point(monkeypatch, wave, "wave degree must be a non-negative integer")


@pytest.mark.parametrize("component", [1.0, np.float64(1.0), "1", None, -1, 2])
def test_replay_rejects_a_component_that_is_no_index(monkeypatch, component):
    # 1.0 used to pass the range check and raise numpy's IndexError once the
    # points were read, "1" a TypeError
    calls = count_wave_work(monkeypatch)
    monkeypatch.setattr(simulator, "check_points", lambda *args: calls.append(args))
    config = SimulationConfig(BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6),
                              GeometricDegrees(0.3), L=1, seed=0)
    wave = WaveParams(1, np.array([0.0, 0.0, 1.0]), 3, component=component)
    with pytest.raises(SimulationError, match="wave component index out of range"):
        wave_eval_vector(wave, config, meridian_points(2, [0.1, 1.0]))
    assert calls == []


def test_replay_accepts_the_edges_of_the_rules():
    # numpy integers and signs, and a pole 1e-13 off the unit norm, pass
    config = SimulationConfig(SequenceCovariance([0.5, 0.5], d=2), FiniteDegrees([0.5, 0.5]),
                              L=1, seed=0)
    points = meridian_points(2, [0.1, 1.0])
    pole = np.array([0.0, 0.6, 0.8])
    plain = wave_eval_scalar(WaveParams(-1, pole, 1), config, points)
    assert_array_equal(wave_eval_scalar(WaveParams(np.int64(-1), pole, np.int64(1)), config,
                                        points), plain)
    assert np.all(np.isfinite(wave_eval_scalar(WaveParams(1, (1 + 1e-13) * pole, 1), config,
                                               points)))


# ------------------------------------------------------------------ simulate

def test_config_rejects_uncovered_support():
    with pytest.raises(SimulationError):
        SimulationConfig(NegativeBinomial(0.5, d=2), OddShiftedZeta(2.0), L=10, seed=0)


@pytest.mark.parametrize("model, law, bodies", [
    (NegativeBinomial(0.5, d=2), GeometricDegrees(0.05), ("_log_coeff", "_coeff")),
    (GeneralizedF(1.0, 3.5, 2.0, d=3), ShiftedZeta(2.0), ("_log_coeff", "_coeff")),
    (BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6), ShiftedZeta(2.0), ("_matrices",)),
])
def test_config_with_a_full_support_law_computes_no_coefficient(monkeypatch, model, law,
                                                                bodies):
    # the support check evaluates the model only where the law has no mass;
    # it used to compute every coefficient up to SUPPORT_CHECK_MAX
    def boom(n):
        raise AssertionError("coefficient computed")

    for body in bodies:
        monkeypatch.setattr(model, body, boom)
    SimulationConfig(model, law, L=10, seed=0)


def test_float_seed_rejected():
    # a float seed used to be truncated: 2.7 silently ran seed 2
    with pytest.raises(SimulationError, match="seed must be an integer, got 2.7"):
        scalar_config(seed=2.7)


@pytest.mark.parametrize("seed, folded", [(np.int64(5), 5), (-1, 2**64 - 1), (2**64 + 3, 3),
                                          (-(2**64) + 7, 7)])
def test_integer_seeds_fold_as_the_wave_streams_do(seed, folded):
    # an integer of any type or size is kept as a Python int; wave_rng folds
    # it to its low 64 bits, so these seeds run the same waves
    config = scalar_config(L=5, seed=seed)
    assert type(config.seed) is int and config.seed == seed
    points = meridian_points(2, np.linspace(0.0, np.pi, 7))
    assert_array_equal(simulate(config, points).values,
                       simulate(scalar_config(L=5, seed=folded), points).values)


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


def plan_laws():
    """The four degree-law families, with drawn parameters."""
    probs = st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5)
    return st.one_of(
        probs.map(lambda w: FiniteDegrees(np.array(w) / sum(w))),
        st.floats(0.01, 0.9).map(GeometricDegrees),
        st.floats(1.1, 4.0).map(ShiftedZeta),
        st.floats(1.1, 4.0).map(OddShiftedZeta),
    )


@settings(max_examples=60, deadline=None)
@given(law=plan_laws(), d=st.sampled_from([1, 2, 3, 8]), p=st.sampled_from([1, 2]),
       L=st.integers(1, 40),
       seed=st.one_of(st.just(0), st.integers(-2**70, -1), st.integers(0, 2**64 - 1),
                      st.integers(2**64, 2**80)))
@example(law=ShiftedZeta(2.0), d=3, p=1, L=2, seed=0)
@example(law=GeometricDegrees(0.05), d=2, p=2, L=3, seed=-1)
@example(law=FiniteDegrees([0.5, 0.5]), d=8, p=2, L=5, seed=2**64 + 9)
def test_plan_is_the_per_wave_streams(law, d, p, L, seed):
    # simulate draws its plan through one Philox re-keyed per wave; the plan
    # must be the public per-wave replay, field for field and pole byte for
    # pole byte (the model only has to load a degree that every law covers)
    model = (SequenceCovariance([0.0, 1.0], d=d) if p == 1 else
             SequenceMultiCovariance([np.zeros((2, 2)), np.eye(2)], d=d))
    config = SimulationConfig(model, law, L=L, seed=seed)
    plan = simulator._draw_plan(config)
    assert plan.poles.shape == (L, d + 1) and plan.degrees.dtype == np.int64
    for idx, row in enumerate(plan_rows(plan)):
        replay = draw_wave(config, wave_rng(seed, idx))
        assert row == plan_fields(replay)


def plan_fields(wave):
    return wave.epsilon, wave.degree, wave.component, wave.pole.dtype, wave.pole.tobytes()


def plan_rows(plan):
    """plan_fields of each wave of a _Plan, read from its arrays."""
    components = ([None] * plan.signs.size if plan.components is None
                  else plan.components.tolist())
    return [(sign, degree, component, pole.dtype, pole.tobytes())
            for sign, degree, component, pole
            in zip(plan.signs.tolist(), plan.degrees.tolist(), components, plan.poles)]


def plan_model(d, p):
    return (SequenceCovariance([0.0, 1.0], d=d) if p == 1 else
            SequenceMultiCovariance([np.zeros((2, 2)), np.eye(2)], d=d))


def test_rejected_draw_attempt_is_redrawn_whole(monkeypatch):
    # every candidate of wave 3's first draw attempt is rejected: draw_wave
    # then reads a second row of uniforms before the component, and the
    # batched plan must redraw that wave whole, as the replay does
    seed, target, d = 11, 3, 3
    config = SimulationConfig(plan_model(d, 2), ShiftedZeta(1.5), L=6, seed=seed)
    rng = wave_rng(seed, target)
    rng.integers(0, 2)
    rng.normal(size=d + 1)
    marked = rng.random()               # the first candidate u of that attempt
    original = degree_sampling._devroye_candidates
    rejected = []

    def reject_marked_rows(theta, u, v):
        x, ok = original(theta, u, v)
        marked_rows = (u == marked).any(axis=-1, keepdims=True)
        rejected.append(int(marked_rows.sum()))
        return x, ok & ~marked_rows

    unpatched = draw_wave(config, wave_rng(seed, target))
    monkeypatch.setattr(degree_sampling, "_devroye_candidates", reject_marked_rows)
    plan = simulator._draw_plan(config)
    assert rejected == [1, 1, 0]        # the plan's row, then draw_wave's two rows
    replay = [draw_wave(config, wave_rng(seed, idx)) for idx in range(config.L)]
    assert plan_rows(plan) == [plan_fields(w) for w in replay]
    assert plan_rows(plan)[target] != plan_fields(unpatched)


class RecordedReads:
    """A Generator that logs which of its methods each wave's stream calls,
    with the wave index of the stream's key."""

    def __init__(self, rng, log):
        self._rng, self.log = rng, log

    def __getattr__(self, name):
        method = getattr(self._rng, name)
        if name not in ("integers", "normal", "random"):
            return method

        def logged(*args, **kwargs):
            self.log.append((int(self._rng.bit_generator.state["state"]["key"][1]), name))
            return method(*args, **kwargs)
        return logged


@pytest.mark.parametrize("law", [ShiftedZeta(2.0), GeometricDegrees(0.1)])
def test_plan_reads_each_stream_in_draw_waves_order(monkeypatch, law):
    # sign, pole, one draw attempt, component: the component's 32-bit draw
    # would take the half-word the sign's left whatever came between, so
    # only the order of the calls shows a reordering
    config = SimulationConfig(plan_model(2, 3), law, L=4, seed=8)
    plan_log, replay_log = [], []
    monkeypatch.setattr(simulator, "wave_rng",
                        lambda seed, index: RecordedReads(wave_rng(seed, index), plan_log))
    simulator._draw_plan(config)
    monkeypatch.undo()
    for idx in range(config.L):
        draw_wave(config, RecordedReads(wave_rng(config.seed, idx), replay_log))
    assert plan_log == replay_log
    assert [name for _, name in replay_log[:4]] == ["integers", "normal", "random", "integers"]


class TinyFirstPole:
    """A Generator whose first normal vector in the stream of wave `index`
    is scaled by 1e-200, so its norm underflows below 1e-150; every stream
    is read as the wrapped Generator reads it."""

    def __init__(self, rng, index):
        self._rng, self.index, self.scaled = rng, index, 0

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def normal(self, size=None):
        state = self._rng.bit_generator.state
        first = state["state"]["counter"][0] == 1 and state["buffer_pos"] == 1
        v = self._rng.normal(size=size)
        if first and state["state"]["key"][1] == self.index:
            self.scaled += 1
            v *= 1e-200
        return v


def test_degenerate_pole_in_plan_is_redrawn_whole(monkeypatch):
    seed, target = 2**64 + 5, 2
    for law, p in ((ShiftedZeta(2.0), 2), (GeometricDegrees(0.05), 1)):
        config = SimulationConfig(plan_model(3, p), law, L=5, seed=seed)
        made = []

        def tiny_first_pole(seed, index):
            made.append(TinyFirstPole(wave_rng(seed, index), target))
            return made[-1]

        monkeypatch.setattr(simulator, "wave_rng", tiny_first_pole)
        plan = simulator._draw_plan(config)
        assert made[0].scaled == 2      # the plan's read, then draw_wave's
        monkeypatch.undo()
        replay = []
        for idx in range(config.L):
            rng = TinyFirstPole(wave_rng(seed, idx), target)
            replay.append(draw_wave(config, rng))
            assert rng.scaled == (idx == target)
        assert plan_rows(plan) == [plan_fields(w) for w in replay]
        assert np.linalg.norm(plan.poles[target]) == pytest.approx(1.0, abs=1e-15)


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


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_unit_norm_rule_at_its_boundary(d):
    # |norm - 1| <= 1e-12 passes and anything beyond it fails, above and
    # below 1, whichever row is off
    points = sample_pole(d, np.random.default_rng(d), size=40)
    for sign in (1.0, -1.0):
        inside = points * (1.0 + sign * 0.9e-12)
        assert_array_equal(simulator.check_points(inside, d), inside)
        outside = points.copy()
        outside[17] *= 1.0 + sign * 1.1e-12
        with pytest.raises(SimulationError, match="unit norm within 1e-12"):
            simulator.check_points(outside, d)


def test_simulate_metadata_records_profile_error_bound():
    # degrees 0, 0 and 6 on one point: the bound of the exact row of degree 6
    out = simulate(scalar_config(L=3, seed=5), meridian_points(2, [0.2]))
    assert out.metadata["degree_max"] == 6 and out.metadata["profile_methods"]["exact"] == 1
    assert out.metadata["profile_error_bound"] == SERIES_ERROR_BOUND * 7**2
    assert 1e-9 < PROFILE_ERROR_BOUND < 1.3e-9


@pytest.mark.parametrize("seed, top, series", [(6, 16_009, 4), (0, 483, 4), (3, 7, 0),
                                               (15, 477_129, 7)])
def test_simulate_metadata_records_the_bound_of_its_highest_series_row(seed, top, series):
    # F d = 2 under zeta:1.5 on 3 points, where no table pays: every row of
    # degree >= 1 is a series or an exact row, both bounded by
    # SERIES_ERROR_BOUND (n+1)^2, so the highest row sets the bound.  Seed
    # 6's top row, degree 16,009, is a series row (2.8e-8 of its amplitude),
    # seed 0's (483) too, seed 3 draws no series row, and seed 15's top row,
    # degree 477,129, is an exact one (2.5e-5)
    config = SimulationConfig(GeneralizedF(1.0, 3.5, 2.0, d=2), ShiftedZeta(1.5), L=20,
                              seed=seed)
    out = simulate(config, np.eye(3))
    assert out.metadata["degree_max"] == top
    assert out.metadata["profile_methods"]["series"] == series
    assert out.metadata["profile_error_bound"] == SERIES_ERROR_BOUND * (top + 1) ** 2


@pytest.mark.parametrize("case", ["circle", "nb d=2", "f d=3"])
def test_simulate_records_the_largest_bound_of_its_rows(case):
    # the bound of each row's method, written out: the affine map's
    # gamma_{k+d+4} for the group with the most (k) affine rows, the
    # circle's 5 eps (n+1), the table's and the closed form's constants and
    # the recurrence's and series' SERIES_ERROR_BOUND (n+1)^2; simulate
    # records the largest.  Each case runs rows of the method it is named for
    eps = np.finfo(float).eps
    model, law, L, npts, method = {
        "circle": (SequenceCovariance([0.2, 0.5, 0.3], d=1), ShiftedZeta(1.5), 50, 40,
                   simulator.CIRCLE),
        "nb d=2": (NegativeBinomial(0.5, d=2), GeometricDegrees(0.01), 50, 10_000,
                   simulator.TABLE),
        "f d=3": (GeneralizedF(1.0, 3.5, 2.0, d=3), ShiftedZeta(2.0), 200, 1600,
                  simulator.CLOSED),
    }[case]
    config = SimulationConfig(model, law, L=L, seed=3)
    points = sample_pole(config.d, np.random.default_rng(npts), size=npts)
    degrees = simulator._draw_plan(config).degrees
    codes = simulator._profile_methods(config.d, degrees, npts)
    assert method in codes
    quadratic = SERIES_ERROR_BOUND * (degrees + 1.0) ** 2
    k = max(np.count_nonzero(codes[lo : lo + WAVE_GROUP] == simulator.AFFINE)
            for lo in range(0, L, WAVE_GROUP))
    gamma = (k + config.d + 4) * eps
    bounds = {simulator.AFFINE: gamma / (1.0 - gamma) + 0.0 * degrees,
              simulator.CIRCLE: 5.0 * eps * (degrees + 1.0),
              simulator.EXACT: quadratic, simulator.TABLE: PROFILE_ERROR_BOUND + 0.0 * degrees,
              simulator.CLOSED: simulator.CHEBYSHEV_ERROR_BOUND + 0.0 * degrees,
              simulator.SERIES: quadratic}
    per_row = np.choose(codes, [bounds[code] for code in range(len(simulator._METHODS))])
    assert simulate(config, points).metadata["profile_error_bound"] == per_row.max()


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


def count_wave_work(monkeypatch):
    """A list that grows by one at each call of _wave_sums or of a _METHODS
    row function: empty while no wave is evaluated."""
    calls = []

    def counting(real):
        def count(*args):
            calls.append(1)
            return real(*args)
        return count

    monkeypatch.setattr(simulator, "_wave_sums", counting(simulator._wave_sums))
    monkeypatch.setattr(simulator, "_METHODS", tuple(
        method._replace(row=counting(method.row)) for method in simulator._METHODS))
    return calls


def test_indefinite_model_fails_before_any_wave_is_evaluated(monkeypatch):
    # example 2 as printed: indefinite Schoenberg matrices from degree 2 on;
    # the wave plan is drawn and factored first, so no wave is evaluated,
    # neither in a batch nor by a method's row function
    calls = count_wave_work(monkeypatch)
    model = BivariateSpectralMatern(1.0, 2.0, 0.75, 0.75, rho=-0.6,
                                    allow_unverified_cross=True)
    config = SimulationConfig(model, ShiftedZeta(2.0), L=1500, seed=2)
    with pytest.raises(ModelError, match="not positive semidefinite"):
        simulate(config, meridian_points(2, [0.1, 2.0]))
    assert calls == []


def test_points_must_be_a_two_dimensional_array():
    # a stack of point sets has the right last axis but is no point set
    config = scalar_config(L=4)
    stacked = np.stack([meridian_points(2, [0.2, 1.0])] * 2)
    wave = WaveParams(epsilon=1, pole=np.array([0.0, 0.0, 1.0]), degree=3)
    calls = [
        lambda: simulator.check_points(stacked, 2),
        lambda: simulate(config, stacked),
        lambda: simulate_ensemble(config, stacked, 3, np.random.default_rng(0)),
        lambda: wave_eval_scalar(wave, config, stacked),
    ]
    for call in calls:
        with pytest.raises(SimulationError, match=r"rows of 3 coordinates .* shape \(2, 2, 3\)"):
            call()


@pytest.mark.parametrize("L", [2.5, 3.0, "3", None, 0, -2])
def test_wave_count_must_be_a_positive_integer(L):
    with pytest.raises(SimulationError, match="wave count must be an integer >= 1"):
        SimulationConfig(NegativeBinomial(0.5, d=2), GeometricDegrees(0.3), L=L, seed=0)
    assert scalar_config(L=np.int64(3)).L == 3


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
    points, poles = sample_pole(3, rng, size=4), sample_pole(3, rng, size=100)
    scale = rng.normal(size=100)
    scaled = wave_profiles(3, kappas, points, poles, scale)
    plain = wave_profiles(3, kappas, points, poles, np.ones(100))
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
    for d in (2, 3, 5):
        points, poles = sample_pole(d, rng, size=5), sample_pole(d, rng, size=200)
        t = projections(points, poles)
        profiles = wave_profiles(d, kappas, points, poles, np.ones(200))
        lam = 0.5 * (d - 1)
        for i in (0, 3, 57, 199):
            assert_allclose(
                profiles[i],
                gegenbauer_eval(lam, int(kappas[i]), t[i]),
                rtol=1e-12, atol=1e-12,
            )


def few_points(d):
    return np.vstack([meridian_points(d, np.linspace(0.0, np.pi, 5)),
                      sample_pole(d, np.random.default_rng(11), size=4)])


def nb_d2_config(rate):
    return SimulationConfig(NegativeBinomial(0.5, d=2), GeometricDegrees(rate), L=1, seed=0)


# case: (config, points, number of waves)
SAME_WAVE_CASES = {
    "nb d=2": lambda: (nb_d2_config(0.05), few_points(2), 60),
    # even degrees have weight 0, so many wave values are exactly 0.0
    "chentsov d=3": lambda: (SimulationConfig(Chentsov(d=3), ShiftedZeta(2.0), L=1, seed=0),
                             few_points(3), 60),
    "circle": lambda: (SimulationConfig(SequenceCovariance([0.5, 0.3, 0.2], d=1),
                                        FiniteDegrees([0.4, 0.3, 0.3]), L=1, seed=0),
                       few_points(1), 60),
    "f d=3": lambda: (SimulationConfig(GeneralizedF(1.0, 3.5, 2.0, d=3), ShiftedZeta(2.0),
                                       L=1, seed=0), few_points(3), 60),
    "bivariate nb d=2": lambda: (SimulationConfig(BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6),
                                                  GeometricDegrees(0.05), L=1, seed=0),
                                 few_points(2), 60),
    # large enough that most drawn degrees are tabulated
    "nb d=2 latlon:200x300": lambda: (nb_d2_config(0.02),
                                      build_grid(LatLonGrid(200, 300)).points, 6),
    # two POINT_BLOCK tiles, the second partly filled; tabulated rows, p = 2
    "bivariate nb d=2 latlon:100x200": lambda: (
        SimulationConfig(BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6),
                         GeometricDegrees(0.02), L=1, seed=0),
        build_grid(LatLonGrid(100, 200)).points, 6),
    # antipodal pairs: exact and series rows are evaluated on half the points
    "nb d=2 latlon:6x10": lambda: (nb_d2_config(0.05), build_grid(LatLonGrid(6, 10)).points, 60),
}


@pytest.mark.parametrize("case", sorted(SAME_WAVE_CASES))
def test_single_wave_rows_equal_wave_eval_bitwise(case):
    # the batched path and the per-wave path share the projection, the
    # weights and the profile function: replaying the batch's (epsilon,
    # pole, kappa, iota) through wave_eval_* must give the same doubles
    config, points, M = SAME_WAVE_CASES[case]()
    d, p = config.d, config.p
    waves = single_wave_values(config, points, M, np.random.default_rng(3))
    replay = np.random.default_rng(3)
    eps = replay.integers(0, 2, size=M) * 2 - 1
    poles = sample_pole(d, replay, size=M)
    kappas = config.degrees.sample(replay, size=M)
    iotas = replay.integers(0, p, size=M) if p > 1 else [None] * M
    assert len(set(kappas.tolist())) > 1
    if points.shape[0] > 10_000:
        assert np.any(simulator._profile_methods(d, kappas, points.shape[0]) == simulator.TABLE)
    for i in range(M):
        wave = WaveParams(int(eps[i]), poles[i], int(kappas[i]), iotas[i])
        if p == 1:
            assert_array_equal(waves[i, :, 0], wave_eval_scalar(wave, config, points))
        else:
            assert_array_equal(waves[i], wave_eval_vector(wave, config, points))


@st.composite
def tile_cases(draw):
    """(POINT_BLOCK, d, npts, m, seed, tabulated) with at most ~3000 tiles
    in the batch.  Tabulated rows need thousands of points (none pays below
    about 1100 on d <= 3 and 4000 above), so those cases take the two larger
    blocks and a few rows."""
    block = draw(st.sampled_from([1, 7, 64, 16384]))
    d = draw(st.sampled_from([2, 3, 5]))
    tabulated = block >= 64 and draw(st.booleans())
    if tabulated:
        npts = draw(st.integers(4500, 5000))
        m = draw(st.integers(2, 12))
    else:
        npts = draw(st.integers(1, 300))
        width = min(npts, block)
        col_tiles = -(-npts // width)
        m = draw(st.integers(1, max(1, min(3000, 3000 * (block // width) // col_tiles))))
    return block, d, npts, m, draw(st.integers(0, 2**32 - 1)), tabulated


@settings(max_examples=40, deadline=None)
@given(case=tile_cases())
@example(case=(1, 2, 13, 200, 0, False))
@example(case=(7, 3, 5, 3000, 1, False))
@example(case=(64, 5, 300, 400, 2, False))
@example(case=(16384, 2, 128, 3000, 3, False))
@example(case=(64, 3, 4800, 12, 4, True))
def test_tile_shape_does_not_change_bits(case):
    # a batched call over tiles of any shape gives each row the doubles of
    # its own one-row call at the default block
    block, d, npts, m, seed, tabulated = case
    rng = np.random.default_rng(seed)
    if tabulated:
        degrees = rng.choice([0, 1, 2, 7, 23, 60, 132, 133, 150], size=m)
        degrees[:2] = 60, 0            # one tabulated and one exact row at least
    else:
        degrees = rng.geometric(rng.uniform(0.03, 0.6), size=m) - 1   # ties
        degrees[:2] = [0, 1][: m]
    degrees = rng.permutation(degrees).astype(np.int64)
    # random points and poles; pole 0 is the first axis, and three points
    # sit on it, opposite it and orthogonal to it, so that row projects to
    # exactly 1, -1 and 0 there
    points, poles = sample_pole(d, rng, size=npts), sample_pole(d, rng, size=m)
    axes = np.eye(d + 1)
    poles[0] = axes[0]
    points[rng.permutation(npts)[:3]] = [axes[0], -axes[0], axes[1]][: npts]
    scale = rng.normal(size=m)
    pays = simulator._profile_methods(d, degrees, npts) == simulator.TABLE
    assert pays.any() == tabulated and not pays.all()
    single = [wave_profiles(d, degrees[i : i + 1], points, poles[i : i + 1], scale[i : i + 1])[0]
              for i in range(m)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "POINT_BLOCK", block)
        batch = wave_profiles(d, degrees, points, poles, scale)
    assert_array_equal(batch, np.array(single))


@pytest.mark.parametrize("case", ["nb d=2", "f d=3", "bivariate nb d=2", "chentsov d=3",
                                  "nb d=2 latlon:200x300", "bivariate nb d=2 latlon:100x200",
                                  "nb d=2 latlon:6x10"])
def test_outputs_do_not_depend_on_point_block(monkeypatch, case):
    # _wave_sums adds one wave at a time over point tiles on many points and
    # sweeps bands of rows on few; no output may move a bit, the sign of a
    # zero included, when the tiles, and with them the form, change.  The
    # large grids span several default tiles and take tabulated rows; the
    # lat-lon 6x10 grid pairs up as antipodes, which only the sweeps use.  The
    # Chentsov case's L = 2 field and ensembles hold many exact zeros: both
    # waves of a realization often have even degree and so weight 0
    config, points, M = SAME_WAVE_CASES[case]()
    config = SimulationConfig(config.model, config.degrees, L=2 if case == "chentsov d=3" else 20,
                              seed=4)
    npts = points.shape[0]
    if npts > simulator.POINT_BLOCK:
        degrees = simulator._draw_plan(config).degrees
        assert np.any(simulator._profile_methods(config.d, degrees, npts) == simulator.TABLE)
    waves = single_wave_values(config, points, M, np.random.default_rng(5))
    field = simulate(config, points).values
    ensemble = simulate_ensemble(config, points, 2, np.random.default_rng(6))
    if case == "chentsov d=3":
        assert np.all(field == 0.0) and np.mean(waves == 0.0) > 0.5 and np.any(ensemble == 0.0)
    for block in (1, 7, 64) if npts < 100 else (64, 7001):
        monkeypatch.setattr(simulator, "POINT_BLOCK", block)
        assert_array_equal(single_wave_values(config, points, M, np.random.default_rng(5))
                           .view(np.int64), waves.view(np.int64))
        assert_array_equal(simulate(config, points).values.view(np.int64), field.view(np.int64))
        assert_array_equal(simulate_ensemble(config, points, 2, np.random.default_rng(6))
                           .view(np.int64), ensemble.view(np.int64))


@pytest.mark.parametrize("spec, paired", [
    ("latlon:8x16", True), ("latlon:7x10", True), ("latlon:1x2", True), ("latlon:6x10", True),
    ("section:5:16x32", True), ("section:4:5x6", True), ("slice3:0:8x16", True),
    ("slice3:-0:7x12", True), ("latlon:8x15", False), ("latlon:1x1", False),
    ("section:5:4x9", False), ("slice3:0.25:8x16", False), ("slice3:0:9x7", False)])
def test_pair_search_on_grids(spec, paired):
    # with an even longitude count every face center's antipode is a face
    # center, written as its exact negation, so the search pairs them all;
    # the grid's colat and lon columns and its unit norms stay as they were
    grid = build_grid(parse_grid(spec))
    points = grid.points
    pairs = simulator._antipodal_pairs(points)
    assert (pairs is not None) == paired
    if paired:
        near = pairs.near
        assert near.size == points.shape[0] // 2 and np.all(np.diff(near) > 0)
        assert np.all(pairs.flip[near] == 1.0)
        assert np.all(pairs.flip * points[near][pairs.source].T == points.T)
        # the earlier point of each pair is the grid's first half
        assert_array_equal(near, np.arange(near.size))
    n_colat, n_lon = (int(n) for n in spec.rsplit(":", 1)[1].split("x"))
    assert_array_equal(grid.coords[:, 0],
                       np.repeat((np.arange(n_colat) + 0.5) * np.pi / n_colat, n_lon))
    assert_array_equal(grid.coords[:, 1],
                       np.tile((np.arange(n_lon) + 0.5) * 2.0 * np.pi / n_lon, n_colat))
    assert np.max(np.abs(np.linalg.norm(points, axis=1) - 1.0)) <= 1e-12


def test_pair_search_rejects_what_does_not_pair_exactly(monkeypatch):
    points = build_grid(LatLonGrid(8, 16)).points
    assert simulator._antipodal_pairs(points) is not None
    moved = points.copy()
    moved[-5, 0] = np.nextafter(moved[-5, 0], np.inf)         # one southern point, one ulp
    assert simulator._antipodal_pairs(moved) is None
    assert simulator._antipodal_pairs(points[:-1]) is None       # odd point count
    assert simulator._antipodal_pairs(np.vstack([points, points[:1]])) is None
    doubled = np.vstack([points[:2], points[:2]])                # x, y, x, y: no antipodes
    assert simulator._antipodal_pairs(doubled) is None
    for d, npts in ((2, 2), (2, 128), (3, 500), (8, 64)):
        random = sample_pole(d, np.random.default_rng(npts), size=npts)
        assert simulator._antipodal_pairs(random) is None
        # the same points with their negations pair up, in any order
        both = np.vstack([random, -random])[np.random.default_rng(d).permutation(2 * npts)]
        pairs = simulator._antipodal_pairs(both)
        assert np.all(pairs.flip * both[pairs.near][pairs.source].T == both.T)
    # a set with a column whose max is not exactly -min is rejected before
    # any sort: a slice of the 3-sphere off its equator, and the grid with
    # one point moved to the south pole
    polar = points.copy()
    polar[-1] = [0.0, 0.0, -1.0]
    monkeypatch.setattr(np, "argsort", None)
    for rejected in (build_grid(parse_grid("slice3:0.25:8x16")).points, polar):
        assert simulator._antipodal_pairs(rejected) is None


def circle_pairs(npts):
    """npts points on the circle, the later half the exact negation of the
    earlier half."""
    angles = (np.arange(npts // 2) + 0.5) * np.pi / (npts // 2)
    half = np.column_stack([np.cos(angles), np.sin(angles)])
    return np.vstack([half, -half])


# case: (config, grid spec or points); every point set pairs up as antipodes
MIRROR_CASES = {
    "nb d=2 latlon:8x16": (lambda: SimulationConfig(
        NegativeBinomial(0.5, d=2), GeometricDegrees(0.05), L=100, seed=4), "latlon:8x16"),
    "bivariate nb d=2 latlon:7x10": (lambda: SimulationConfig(
        BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6), GeometricDegrees(0.05), L=70,
        seed=5), "latlon:7x10"),
    "bivariate nb d=5 section:5:16x32": (lambda: SimulationConfig(
        BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6, d=5), GeometricDegrees(0.05), L=70,
        seed=6), "section:5:16x32"),
    # even degrees have weight 0: those rows add nothing
    "chentsov d=3 slice3:0:8x16": (lambda: SimulationConfig(
        Chentsov(d=3), ShiftedZeta(2.0), L=300, seed=7), "slice3:0:8x16"),
    # heavy rows on the 3-sphere take the closed form
    "f d=3 slice3:-0:6x8": (lambda: SimulationConfig(
        GeneralizedF(1.0, 3.5, 2.0, d=3), ShiftedZeta(1.2), L=200, seed=8), "slice3:-0:6x8"),
    # 8,192 points, the most of the sweeps: bands of 4 rows, and table rows
    "nb d=2 latlon:64x128": (lambda: SimulationConfig(
        NegativeBinomial(0.5, d=2), GeometricDegrees(0.02), L=64, seed=9), "latlon:64x128"),
    # 20,000 and 10,000 points, one wave at a time: table rows, the CLI
    # workload's bivariate config, and rows of weight zero
    "nb d=2 latlon:100x200": (lambda: SimulationConfig(
        NegativeBinomial(0.5, d=2), GeometricDegrees(0.01), L=20, seed=10), "latlon:100x200"),
    "bivariate nb d=2 latlon:100x200": (lambda: SimulationConfig(
        BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6), GeometricDegrees(0.01), L=15,
        seed=11), "latlon:100x200"),
    "chentsov d=3 slice3:0:100x100": (lambda: SimulationConfig(
        Chentsov(d=3), ShiftedZeta(2.0), L=100, seed=12), "slice3:0:100x100"),
    # circle rows
    "nb d=1 circle:64": (lambda: SimulationConfig(
        NegativeBinomial(0.8, d=1), GeometricDegrees(0.1), L=100, seed=13), circle_pairs(64)),
}


def mirror_points(spec):
    """A MIRROR_CASES point set: a grid spec's points, or the points given."""
    return build_grid(parse_grid(spec)).points if isinstance(spec, str) else spec


def mirror_outputs(config, points):
    """Each entry point's output: simulate, an ensemble, single waves and
    wave_eval_* of the plan's first 40 waves."""
    plan = simulator._draw_plan(config)
    replay = []
    for i in range(min(40, config.L)):
        component = None if plan.components is None else int(plan.components[i])
        wave = WaveParams(int(plan.signs[i]), plan.poles[i], int(plan.degrees[i]), component)
        replay.append(wave_eval_scalar(wave, config, points) if config.p == 1
                      else wave_eval_vector(wave, config, points))
    return (simulate(config, points).values,
            simulate_ensemble(config, points, 3, np.random.default_rng(1)),
            single_wave_values(config, points, 150, np.random.default_rng(2)),
            np.array(replay))


@pytest.mark.parametrize("case", sorted(MIRROR_CASES))
def test_mirror_keeps_every_bit(monkeypatch, case):
    # evaluating one point of each antipodal pair and writing its partner as
    # (-1)^n times the value gives the doubles of evaluating both, the sign
    # of a zero included, on every entry point and either form
    make, spec = MIRROR_CASES[case]
    config, points = make(), mirror_points(spec)
    assert simulator._antipodal_pairs(points) is not None
    mirrored = mirror_outputs(config, points)
    monkeypatch.setattr(simulator, "_antipodal_pairs", lambda points: None)
    for direct, value in zip(mirror_outputs(config, points), mirrored):
        assert_array_equal(value.view(np.int64), direct.view(np.int64))


def test_mirror_cases_take_every_mirrored_method():
    # the cases above cover exact, series, closed-form, table and circle
    # rows, rows of weight zero, and both forms of _wave_sums
    codes, zero, npts = set(), False, set()
    for make, spec in MIRROR_CASES.values():
        config, points = make(), mirror_points(spec)
        npts.add(points.shape[0] > simulator.POINT_BLOCK // 2)
        plan = simulator._draw_plan(config)
        codes |= set(simulator._profile_methods(config.d, plan.degrees, points.shape[0]).tolist())
        signed, _ = simulator._wave_coefficients(config, plan)
        zero |= bool(np.any((signed == 0.0) & (plan.degrees >= 2)))
    assert {simulator.EXACT, simulator.SERIES, simulator.CLOSED, simulator.TABLE,
            simulator.CIRCLE} <= codes
    assert zero and npts == {False, True}


@pytest.mark.parametrize("degree, code", [(2, simulator.EXACT), (5, simulator.EXACT),
                                          (12, simulator.SERIES), (1001, simulator.CLOSED)])
def test_mirror_skips_a_band_with_an_exact_zero_projection(degree, code):
    # on slice3:0 the pole e_3 projects every point to an exact zero, whose
    # sign at a point's antipode is not the negation's: such a wave is
    # evaluated at every point, with the doubles of no pairing at all
    config = SimulationConfig(GeneralizedF(1.0, 3.5, 2.0, d=3), ShiftedZeta(1.2), L=1, seed=0)
    points = build_grid(parse_grid("slice3:0:6x8")).points
    assert simulator._profile_methods(3, [degree], points.shape[0]).tolist() == [code]
    poles = np.vstack([np.eye(4)[3], sample_pole(3, np.random.default_rng(degree), size=2)])
    plan = simulator._Plan(np.array([1, -1, 1]), poles, np.full(3, degree), None)
    signed, _ = simulator._wave_coefficients(config, plan)
    pairs = simulator._antipodal_pairs(points)
    one_by_one = [simulator._wave_sums(3, plan.degrees[i : i + 1], points, poles[i : i + 1],
                                       signed[i : i + 1], None, 1, 0, pairs) for i in range(3)]
    batch = simulator._wave_sums(3, plan.degrees, points, poles, signed, None, 1, 0, pairs)
    direct = simulator._wave_sums(3, plan.degrees, points, poles, signed, None, 1)
    if degree % 2:
        # here the mirror would move bits: the antipode's value is not the negation
        values = direct[0, 0]
        mirrored = pairs.flip * values[pairs.near][pairs.source]
        assert not np.array_equal(mirrored.view(np.int64), values.view(np.int64))
    for value in (batch, np.concatenate(one_by_one)):
        assert_array_equal(value.view(np.int64), direct.view(np.int64))


def test_pair_search_runs_once_per_call(monkeypatch):
    # simulate searches once for all its groups and threads, an ensemble or
    # a batch of single waves once for all its chunks and pieces, and
    # wave_eval_* not at all
    calls = []
    real = simulator._antipodal_pairs
    monkeypatch.setattr(simulator, "_antipodal_pairs", lambda points: calls.append(1) or
                        real(points))
    monkeypatch.setattr(simulator, "ENSEMBLE_BUDGET", 20 * 128)
    monkeypatch.setattr(simulator, "ENSEMBLE_PIECE", 5 * 128)
    config = SimulationConfig(NegativeBinomial(0.5, d=2), GeometricDegrees(0.05), L=200, seed=0)
    points = build_grid(parse_grid("latlon:8x16")).points
    for call in (lambda: simulate(config, points), lambda: simulate(config, points, n_threads=2),
                 lambda: simulate_ensemble(config, points, 3, np.random.default_rng(0)),
                 lambda: single_wave_values(config, points, 50, np.random.default_rng(1))):
        calls.clear()
        call()
        assert calls == [1]
    calls.clear()
    wave_eval_scalar(WaveParams(1, points[0], 7), config, points)
    assert calls == []


def test_heavy_exact_wave_keeps_no_per_degree_state():
    # a one-row exact wave runs the recurrence alone: degree 50,000 on two
    # points holds a few small arrays, not a count or a list per degree
    config = SimulationConfig(GeneralizedF(1.0, 3.5, 2.0, d=2), ShiftedZeta(2.0), L=1, seed=0)
    wave = WaveParams(epsilon=-1, pole=np.array([0.0, 0.6, 0.8]), degree=50_000)
    points = meridian_points(2, [0.3, 2.0])
    tracemalloc.start()
    try:
        values = wave_eval_scalar(wave, config, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(values)) and np.any(values != 0.0)
    assert peak < 100_000


def test_heavy_exact_row_in_a_batch_keeps_no_per_degree_state():
    # the many-row sweep drops rows at the band's own distinct degrees: a
    # degree-200,000 exact row among others on three points holds no count
    # or list per degree (those took 3.2 MB; the sweep itself needs 16 kB)
    degrees = np.array([3, 200_000, 0, 17, 200_000, 2])
    points, poles = great_circle([0.3, -1.0, 1.0], degrees.size)
    scale = np.linspace(-1.0, 1.0, degrees.size)
    codes = simulator._profile_methods(2, degrees, 3)
    assert np.count_nonzero(codes == simulator.EXACT) == 4
    assert np.count_nonzero(codes == simulator.SERIES) == 1             # degree 17
    tracemalloc.start()
    try:
        got = wave_profiles(2, degrees, points, poles, scale)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    for i in (0, 1, 3):
        assert_array_equal(got[i], wave_profiles(2, degrees[i : i + 1], points, poles[:1],
                                                 scale[i : i + 1])[0])


def test_simulate_ensemble_builds_no_projection_array():
    # the validate workload's ensemble: 20,000 waves on 128 points drawn in
    # one chunk and summed over ten pieces of 20 realizations.  Each band is
    # projected when the sweep reaches it, where the whole (M L, npts)
    # projection array took another 20 MB (43.3 MB peak); a piece holds
    # 2 MB of wave values, where the whole chunk's took 20 MB (22 MB peak)
    config = SimulationConfig(NegativeBinomial(0.5, d=2), GeometricDegrees(0.05), L=100, seed=0)
    points = build_grid(parse_grid("latlon:8x16")).points
    tracemalloc.start()
    try:
        out = simulate_ensemble(config, points, 200, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (200, 128, 1) and np.all(np.isfinite(out))
    assert peak <= 6_000_000


def test_single_wave_values_memory_stays_near_its_output():
    # the exact sweep works in cache-sized tiles, so beyond the projections
    # and the output it holds only tile-sized buffers; full-height column
    # blocks, with their four working copies of t, peaked at 6.07 times it
    config = nb_d2_config(0.05)
    points = build_grid(parse_grid("latlon:8x16")).points
    tracemalloc.start()
    try:
        waves = single_wave_values(config, points, 20_000, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * waves.nbytes


def test_large_grid_ensemble_memory_stays_near_its_output():
    # on 20,000 points each wave is evaluated and added to its realization
    # in turn, over point tiles: no (M L, npts) array of wave values, which
    # took 64 MB here (65.5 MB peak)
    config = SimulationConfig(NegativeBinomial(0.5, d=2), GeometricDegrees(0.05), L=100, seed=0)
    points = build_grid(parse_grid("latlon:100x200")).points
    tracemalloc.start()
    try:
        out = simulate_ensemble(config, points, 4, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (4, 20_000, 1) and np.all(np.isfinite(out))
    assert peak < 8_000_000


def simulate_peak(L):
    """tracemalloc peak of simulate of nb d=2 on 20,000 points with L waves."""
    config = SimulationConfig(NegativeBinomial(0.5, d=2), GeometricDegrees(0.05), L=L, seed=0)
    points = build_grid(parse_grid("latlon:100x200")).points
    tracemalloc.start()
    try:
        simulate(config, points)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_does_not_grow_with_its_groups():
    # each group sum is added as it is made: ten groups hold no more than
    # one, save the plan and larger tables of the extra waves, well within
    # one more group sum (160 kB); a list of the group sums took 1.6 MB more
    assert 640 // WAVE_GROUP == 10
    assert simulate_peak(640) <= simulate_peak(64) + 20_000 * 8


def affine_map(d, degrees, poles, signed, factors, points):
    """The affine map of a run's rows of degree 0 and 1, written out, shape
    (npts, p): A sums w_i f_i over the degree-0 rows and V (c w_i) f_i
    pole_i over the degree-1 rows, c = G_1(1), each from zero in wave order;
    then one product V x over all points, plus A."""
    c = float(max(d - 1, 1))
    p = 1 if factors is None else factors.shape[1]
    A, V = np.zeros(p), np.zeros((p, d + 1))
    for i in np.flatnonzero(degrees <= 1):
        f = np.ones(1) if factors is None else factors[i]
        if degrees[i] == 0:
            A += signed[i] * f
        else:
            V += ((c * signed[i]) * f)[:, None] * poles[i][None, :]
    return (np.matmul(V, points.T) + A[:, None]).T


def run_sum(d, degrees, poles, signed, factors, points, waves):
    """A run's sum as _wave_sums makes it: the affine map of its rows of
    degree 0 and 1 when it has any, then its other waves (rows of waves,
    shape (npts, p)) added in wave order."""
    total = (affine_map(d, degrees, poles, signed, factors, points)
             if np.any(degrees <= 1) else None)
    for i in np.flatnonzero(degrees > 1):
        total = waves[i].copy() if total is None else total + waves[i]
    return total


@pytest.mark.parametrize("case, npts", [("nb d=2", 1), ("bivariate nb d=2", 1),
                                        ("f d=3", 3), ("bivariate nb d=2", 9000)])
def test_ensemble_is_its_waves_summed_in_order(case, npts):
    # a realization is its affine map, then its other L waves added in draw
    # order, whatever the point count (one point included) or form, then
    # scaled by 1/sqrt(L); the waves are single_wave_values' rows of the
    # same stream
    model, degrees = SUM_CASES[case]
    config = SimulationConfig(model, degrees, L=30, seed=0)
    points = sample_pole(config.d, np.random.default_rng(npts), size=npts)
    M, L = 7, config.L
    waves = single_wave_values(config, points, M * L, np.random.default_rng(4))
    plan = simulator._draw_waves(config, M * L, np.random.default_rng(4))
    signed, factors = simulator._wave_coefficients(config, plan)
    assert np.any(plan.degrees <= 1)
    expected = np.array([
        run_sum(config.d, plan.degrees[run], plan.poles[run], signed[run],
                None if factors is None else factors[run], points, waves[run])
        for run in (slice(r * L, (r + 1) * L) for r in range(M))])
    expected *= 1.0 / np.sqrt(L)
    assert_array_equal(simulate_ensemble(config, points, M, np.random.default_rng(4)), expected)


@pytest.mark.parametrize("case", ["nb d=2", "bivariate nb d=2", "f d=3"])
def test_ensemble_pieces_keep_its_bits(case, monkeypatch):
    # a chunk summed over pieces of three realizations, the last one short,
    # gives the bits of one piece: a realization's waves never straddle two
    model, degrees = SUM_CASES[case]
    config = SimulationConfig(model, degrees, L=30, seed=0)
    points = sample_pole(config.d, np.random.default_rng(5), size=50)
    whole = simulate_ensemble(config, points, 7, np.random.default_rng(5))
    monkeypatch.setattr(simulator, "ENSEMBLE_PIECE", 3 * 30 * 50 * config.p)
    assert_array_equal(simulate_ensemble(config, points, 7, np.random.default_rng(5)), whole)


# model, degree law: the simulate cases of the sum property below
SUM_CASES = {
    "nb d=2": (NegativeBinomial(0.5, d=2), GeometricDegrees(0.01)),
    "f d=3": (GeneralizedF(1.0, 3.5, 2.0, d=3), ShiftedZeta(2.0)),
    "bivariate nb d=2": (BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6),
                         GeometricDegrees(0.01)),
    "chentsov d=4": (Chentsov(d=4), OddShiftedZeta(2.0)),
    "exponential d=3": (Exponential(1.0, d=3), ShiftedZeta(2.0)),
    "bivariate nb zeta d=2": (BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6),
                              ShiftedZeta(2.0)),
    "circle d=1": (SequenceCovariance([0.2, 0.5, 0.3], d=1), FiniteDegrees([0.25, 0.5, 0.25])),
    "nb d=4": (NegativeBinomial(0.5, d=4), GeometricDegrees(0.05)),
}


@settings(max_examples=25, deadline=None)
@given(case=st.sampled_from(sorted(SUM_CASES)), L=st.integers(1, 150),
       seed=st.integers(0, 2**64 - 1), npts=st.integers(1, 12))
@example(case="bivariate nb d=2", L=150, seed=0, npts=12)
@example(case="chentsov d=4", L=65, seed=1, npts=1)
def test_simulate_is_the_sum_of_its_waves(case, L, seed, npts):
    # simulate sums in groups of 64 waves; the plain sum of the same waves
    # through wave_eval_* differs only in the summation order.  The scale is
    # the model's field RMS, which a few points may not show
    model, degrees = SUM_CASES[case]
    config = SimulationConfig(model, degrees, L=L, seed=seed)
    points = sample_pole(config.d, np.random.default_rng(seed), size=npts)
    wave_eval = wave_eval_scalar if config.p == 1 else wave_eval_vector
    total = sum(wave_eval(draw_wave(config, wave_rng(seed, i)), config, points)
                for i in range(L))
    values = simulate(config, points).values
    rms = np.sqrt(np.mean(model.variance()))
    assert np.max(np.abs(values - np.reshape(total, values.shape) / np.sqrt(L))) <= 1e-13 * rms


@pytest.mark.parametrize("L, seed, npts, case", [
    (L, seed, npts, case)
    for L, seed, npts in [(150, 0, 12), (64, 2**64 - 1, 1), (100, 5, 3000)]
    for case in ["f d=3", "exponential d=3", "bivariate nb zeta d=2"]
] + [(70, 3, 40, "circle d=1"), (100, 5, 10_000, "nb d=4")])
def test_simulate_is_its_summation_tree_bitwise(L, seed, npts, case):
    # zeta:2 puts 76% of its mass on degrees 0 and 1, whose waves simulate
    # adds as one affine map per group (times their factor rows for p = 2);
    # the replay writes each group's map out, evaluates every other wave
    # through wave_eval_* and sums in the same tree: the map, then the
    # group's other waves in order, the groups of WAVE_GROUP waves in order,
    # then 1/sqrt(L).  On 3000 points the d <= 3 cases have table rows and a
    # shared series sweep (seed 5: tables pay from degree 61 there, which
    # seed 7 never drew), and on 10k points the d = 4 case has
    # recurrence-table rows
    model, degrees = SUM_CASES[case]
    config = SimulationConfig(model, degrees, L=L, seed=seed)
    points = sample_pole(config.d, np.random.default_rng(seed), size=npts)
    p = config.p
    wave_eval = wave_eval_scalar if p == 1 else wave_eval_vector
    waves = [draw_wave(config, wave_rng(seed, i)) for i in range(L)]
    kappas = np.array([wave.degree for wave in waves])
    assert np.any(kappas <= 1) and np.any(kappas > 1)
    if npts > 1000:
        codes = simulator._profile_methods(config.d, kappas, npts)
        assert np.any(codes == simulator.TABLE)
        if config.d <= 3:
            assert np.count_nonzero(codes == simulator.SERIES) > 1      # a shared sweep
    plan = simulator._draw_plan(config)
    signed, factors = simulator._wave_coefficients(config, plan)
    values = np.zeros((npts, p))
    for lo in range(0, L, WAVE_GROUP):
        group = slice(lo, lo + WAVE_GROUP)
        evaluated = [None if wave.degree <= 1 else
                     np.reshape(wave_eval(wave, config, points), (npts, p))
                     for wave in waves[group]]
        values += run_sum(config.d, kappas[group], plan.poles[group], signed[group],
                          None if factors is None else factors[group], points, evaluated)
    values *= 1.0 / np.sqrt(L)
    assert_array_equal(simulate(config, points).values, values)


def long_double_profile(d, n, t):
    """G_n(t) in long double at long-double t: Chebyshev's recurrence for
    cos(n arccos t) on the circle, the Gegenbauer recurrence of lam =
    (d-1)/2 above."""
    t = np.asarray(t, dtype=np.longdouble)
    lam = np.longdouble(d - 1) / 2
    prev, g = np.ones_like(t), (t if d == 1 else 2 * lam * t)
    if n == 0:
        return prev
    for k in range(2, n + 1):
        if d == 1:
            prev, g = g, 2 * t * g - prev
        else:
            prev, g = g, (2 * (k + lam - 1) * t * g - (k + 2 * lam - 2) * prev) / k
    return g


def affine_case_config(d, p, rng):
    """A model whose Schoenberg coefficients (p = 1) or matrices span four
    orders of magnitude over degrees 0 to 12, under the uniform law on them."""
    scales = 10.0 ** rng.uniform(-3.0, 1.0, 13)
    if p == 1:
        model = SequenceCovariance(scales, d=d)
    else:
        roots = rng.normal(size=(13, p, p)) * np.sqrt(scales)[:, None, None]
        matrices = roots @ roots.swapaxes(1, 2)
        model = SequenceMultiCovariance(0.5 * (matrices + matrices.swapaxes(1, 2)), d=d)
    return SimulationConfig(model, FiniteDegrees(np.full(13, 1.0 / 13)), L=1, seed=0)


# degrees of each kind of run: only degree 0, only degree 1, a mix of affine
# and other rows, no affine row
AFFINE_KINDS = {"degree 0": [0], "degree 1": [1], "mix": [0, 1, 2, 3, 9], "none": [2, 3, 9]}


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([1, 2, 3, 4, 8]), p=st.sampled_from([1, 2, 3]),
       kind=st.sampled_from(sorted(AFFINE_KINDS)), run=st.integers(1, 70),
       runs=st.integers(1, 3), npts=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
@example(d=8, p=3, kind="mix", run=64, runs=2, npts=30, seed=0)
@example(d=1, p=1, kind="degree 1", run=1, runs=1, npts=1, seed=1)
@example(d=3, p=1, kind="degree 1", run=64, runs=1, npts=12, seed=2)
@example(d=4, p=2, kind="degree 0", run=5, runs=3, npts=9, seed=3)
@example(d=2, p=1, kind="none", run=7, runs=2, npts=4, seed=4)
def test_affine_map_keeps_its_bound_and_its_bits(d, p, kind, run, runs, npts, seed):
    # a run's rows of degree 0 and 1 make one affine map A + x V: (1) its
    # sum stays within the map's stated bound, gamma_{k+d+4} of the affine
    # rows' amplitudes, of the long-double sum of the waves at the
    # unclipped projections, with the other rows' method bounds and the
    # run's adds on top; (2) its bits do not depend on the form (POINT_BLOCK
    # monkeypatched) and a one-wave run is wave_eval_*'s; (3) a degree-1
    # coefficient c w that overflows, where w does not, raises with its
    # index before any point work
    rng = np.random.default_rng(seed)
    m = run * runs
    degrees = rng.choice(AFFINE_KINDS[kind], size=m).astype(np.int64)
    config = affine_case_config(d, p, rng)
    points, poles = sample_pole(d, rng, size=npts), sample_pole(d, rng, size=m)
    plan = simulator._Plan(rng.choice([-1, 1], size=m), poles, degrees,
                           rng.integers(0, p, size=m) if p > 1 else None)
    signed, factors = simulator._wave_coefficients(config, plan)
    sums = simulator._wave_sums(d, degrees, points, poles, signed, factors, run)
    assert sums.shape == (runs, p, npts)

    eps = np.finfo(float).eps
    gamma = lambda j: j * eps / (1.0 - j * eps)                        # noqa: E731
    ld = np.longdouble
    f = np.ones((m, 1)) if factors is None else factors
    codes = simulator._profile_methods(d, degrees, npts)
    unclipped = points.astype(ld) @ poles.T.astype(ld)              # (npts, m)
    clipped = projections(points, poles)                            # what profile rows read
    for r in range(runs):
        rows = range(r * run, (r + 1) * run)
        affine = [i for i in rows if degrees[i] <= 1]
        ref = np.zeros((p, npts), dtype=ld)
        tol = np.zeros(p)
        for i in rows:
            n = int(degrees[i])
            at = unclipped[:, i] if n <= 1 else clipped[i]
            ref += (ld(signed[i]) * f[i].astype(ld))[:, None] * long_double_profile(d, n, at)
            amp = abs(signed[i] * f[i]) * float(long_double_profile(d, n, 1.0))
            bound = simulator._METHODS[codes[i]].bound(n, d, len(affine))
            tol += amp * (bound + (gamma(run + 1) if len(affine) < run else 0.0))
        if affine and len(affine) == run:
            assert simulator._METHODS[simulator.AFFINE].bound(1, d, run) == gamma(run + d + 4)
        assert np.all(np.abs(sums[r] - ref).astype(float) <= tol[:, None])

    for block in (1, 7):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulator, "POINT_BLOCK", block)
            assert_array_equal(simulator._wave_sums(d, degrees, points, poles, signed, factors,
                                                    run), sums)
    singles = simulator._wave_sums(d, degrees, points, poles, signed, factors, 1)
    if run == 1:
        assert_array_equal(singles, sums)
    wave_eval = wave_eval_scalar if p == 1 else wave_eval_vector
    for i in range(min(m, 8)):
        wave = WaveParams(int(plan.signs[i]), poles[i], int(degrees[i]),
                          None if p == 1 else int(plan.components[i]))
        assert_array_equal(np.reshape(wave_eval(wave, config, points), (npts, p)), singles[i].T)

    ones = np.flatnonzero(degrees == 1)
    if d >= 3 and ones.size:
        # c = d - 1 >= 2 doubles the largest finite weight past the double range
        idx = int(ones[-1])
        with pytest.MonkeyPatch.context() as patch:
            poison_weight(patch, idx, np.finfo(float).max / 1.5)
            calls = count_wave_work(patch)
            patch.setattr(simulator, "_project", lambda *args: calls.append(args))
            message = f"non-finite wave values at wave index {idx}$"
            with pytest.raises(SimulationError, match=message):
                simulator._wave_coefficients(config, plan)
            wave = WaveParams(int(plan.signs[idx]), poles[idx], 1,
                              None if p == 1 else int(plan.components[idx]))
            with pytest.MonkeyPatch.context() as one:
                poison_weight(one, 0, np.finfo(float).max / 1.5)
                with pytest.raises(SimulationError, match="at wave index 0$"):
                    wave_eval(wave, config, points)
            assert calls == []


@pytest.mark.parametrize("affine", [True, False])
def test_non_finite_wave_names_its_index(monkeypatch, tmp_path, capsys, affine):
    # an infinite weight at one wave, of degree 0 or 1 (the affine map) or
    # not (the profile path), must stop simulate at that wave's index, and
    # the CLI with exit code 1
    config = SimulationConfig(NegativeBinomial(0.5, d=2), ShiftedZeta(2.0), L=30, seed=5)
    kappas = simulator._draw_plan(config).degrees
    idx = int(np.flatnonzero((kappas <= 1) == affine)[-1])
    real = simulator._wave_weights

    def poisoned(model, law, degrees):
        weights = real(model, law, degrees)
        if len(degrees) == config.L:
            weights[idx] = np.inf
        return weights

    monkeypatch.setattr(simulator, "_wave_weights", poisoned)
    message = f"non-finite wave values at wave index {idx}$"
    with np.errstate(invalid="ignore"):         # inf - inf in the recurrence
        with pytest.raises(SimulationError, match=message):
            simulate(config, meridian_points(2, [0.3, 1.1, 2.9]))
        code = main(["simulate", "--model", "nb", "--delta", "0.5", "--degree-dist", "zeta:2",
                     "--L", "30", "--seed", "5", "--grid", "latlon:2x3",
                     "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert f"non-finite wave values at wave index {idx}\n" in capsys.readouterr().err


def test_non_finite_wave_in_the_last_tile_names_its_index(monkeypatch):
    # simulate checks a wave tile by tile: a wave that overflows only at its
    # pole, which sits alone in the last tile, must still stop the run with
    # its index.  On the 3-sphere w G_n(1) = (n + 1) w overflows for
    # w = 3.4e308 / (n + 1), while the points orthogonal to the pole, where
    # |G_k| <= 1, stay finite
    config = SimulationConfig(GeneralizedF(1.0, 3.5, 2.0, d=3), ShiftedZeta(2.0), L=30, seed=5)
    plan = simulator._draw_plan(config)
    idx = int(np.flatnonzero(plan.degrees >= 3)[-1])
    pole, degree = plan.poles[idx], int(plan.degrees[idx])
    weight = 1.7e308 / (degree + 1) * 2.0
    ring = np.linalg.svd(pole[None, :])[2][1:]        # orthonormal, orthogonal to pole
    angles = np.linspace(0.0, np.pi, 8, endpoint=False)
    points = np.vstack([np.cos(angles)[:, None] * ring[0] + np.sin(angles)[:, None] * ring[1],
                        pole])
    real = simulator._wave_weights

    def poisoned(model, law, degrees):
        weights = real(model, law, degrees)
        weights[idx] = weight
        return weights

    monkeypatch.setattr(simulator, "_wave_weights", poisoned)
    monkeypatch.setattr(simulator, "POINT_BLOCK", 4)           # tiles of 4, 4 and 1 points
    [code] = simulator._profile_methods(3, [degree], points.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        values = simulator._METHODS[code].row(1.0, degree, weight)(
            np.clip(points @ pole, -1.0, 1.0))
        assert np.all(np.isfinite(values[:8])) and not np.isfinite(values[8])
        with pytest.raises(SimulationError, match=f"non-finite wave values at wave index {idx}$"):
            simulate(config, points)


def poison_weight(monkeypatch, idx, value=np.inf):
    """Make wave idx of every batch of more than idx waves take the weight
    value."""
    real = simulator._wave_weights

    def poisoned(model, law, degrees):
        weights = real(model, law, degrees)
        if len(degrees) > idx:
            weights[idx] = value
        return weights

    monkeypatch.setattr(simulator, "_wave_weights", poisoned)


@pytest.mark.parametrize("npts", [3, 9000])
def test_non_finite_values_raise_on_every_entry_point(monkeypatch, npts):
    # a weight that overflows, a NaN or an infinite one stops each entry
    # point with the wave's index before any profile is made, in either form
    # of _wave_sums (a degree-sorted sweep on 3 points, one wave at a time on
    # 9,000), and with no warning: the tests turn warnings into errors
    points = sample_pole(2, np.random.default_rng(npts), size=npts)
    rng = np.random.default_rng(0)
    config = SimulationConfig(NegativeBinomial(0.9, d=2), GeometricDegrees(0.5), L=5, seed=0)
    calls = count_wave_work(monkeypatch)
    wave = WaveParams(epsilon=1, pole=points[0], degree=3000)       # weight exp(882)
    with pytest.raises(SimulationError, match="non-finite wave values at wave index 0$"):
        wave_eval_scalar(wave, config, points)
    for value in (np.nan, np.inf):
        with pytest.MonkeyPatch.context() as patch:
            poison_weight(patch, 7, value)
            with pytest.raises(SimulationError, match="at wave index 7$"):
                single_wave_values(config, points, 10, rng)
        with pytest.MonkeyPatch.context() as patch:
            poison_weight(patch, 11, value)      # realization 2, wave 1
            with pytest.raises(SimulationError, match="at wave index 11$"):
                simulate_ensemble(config, points, 3, rng)
    assert calls == []


def test_overflowing_affine_coefficient_raises_on_every_entry_point(monkeypatch):
    # on d = 4 a degree-1 wave's coefficient is c w = 3 w: a finite weight
    # of a third of the largest double or more overflows there.  Each entry
    # point names the wave before any wave is evaluated
    config = SimulationConfig(NegativeBinomial(0.5, d=4), GeometricDegrees(0.5), L=40, seed=0)
    points = sample_pole(4, np.random.default_rng(0), size=3)
    huge = np.finfo(float).max / 1.5
    calls = count_wave_work(monkeypatch)
    idx = int(np.flatnonzero(simulator._draw_plan(config).degrees == 1)[-1])
    with pytest.MonkeyPatch.context() as patch:
        poison_weight(patch, idx, huge)
        with pytest.raises(SimulationError, match=f"non-finite wave values at wave index {idx}$"):
            simulate(config, points)
    drawn = simulator._draw_waves(config, 3 * config.L, np.random.default_rng(1)).degrees
    idx = int(np.flatnonzero(drawn == 1)[-1])
    with pytest.MonkeyPatch.context() as patch:
        poison_weight(patch, idx, huge)
        with pytest.raises(SimulationError, match=f"at wave index {idx}$"):
            single_wave_values(config, points, 3 * config.L, np.random.default_rng(1))
        with pytest.raises(SimulationError, match=f"at wave index {idx}$"):
            simulate_ensemble(config, points, 3, np.random.default_rng(1))
    assert calls == []


def realization_count_calls(config, M):
    """The three entry points that take a count M of waves or realizations."""
    points = meridian_points(2, [0.2, 1.0])
    rng = np.random.default_rng(0)
    return [lambda: single_wave_values(config, points, M, rng),
            lambda: simulate_ensemble(config, points, M, rng),
            lambda: clt_marginal_samples(config, points[0], M, rng)]


@pytest.mark.parametrize("M", [3.0, 2.5, "3", None])
def test_realization_count_must_be_an_integer(M):
    # a float M used to raise numpy's TypeError from inside the draws
    for call in realization_count_calls(scalar_config(L=4), M):
        with pytest.raises(SimulationError, match="M must be a non-negative integer, got"):
            call()
    for call in realization_count_calls(scalar_config(L=4), np.int64(3)):
        assert call().shape[0] == 3


@pytest.mark.parametrize("M", [-1, -3])
def test_realization_count_must_not_be_negative(M):
    # a negative M used to raise numpy's "negative dimensions" ValueError
    for call in realization_count_calls(scalar_config(L=4), M):
        with pytest.raises(SimulationError, match=f"M must be a non-negative integer, got {M}$"):
            call()
    for call in realization_count_calls(scalar_config(L=4), 0):
        assert call().shape[0] == 0


@pytest.mark.parametrize("npts", [3, 9000])
def test_simulate_names_the_global_index_in_a_later_group(monkeypatch, npts):
    # wave 100 sits in the second group of WAVE_GROUP waves; the error
    # names its index in the plan, not in its group, and comes before any
    # group is summed, threaded or not
    points = sample_pole(2, np.random.default_rng(npts), size=npts)
    config = SimulationConfig(NegativeBinomial(0.5, d=2), GeometricDegrees(0.05), L=150, seed=3)
    poison_weight(monkeypatch, 100)
    calls = count_wave_work(monkeypatch)
    assert 100 >= WAVE_GROUP
    for threads in (None, 2):
        with pytest.raises(SimulationError, match="non-finite wave values at wave index 100$"):
            simulate(config, points, n_threads=threads)
    assert calls == []


def test_threaded_groups_keep_the_callers_errstate(monkeypatch):
    # a group summed on a worker thread runs under the caller's np.errstate,
    # as a sequential one does: wave 122, of degree 5 in the second group,
    # takes a finite weight whose profile overflows at its pole only, and
    # under over="ignore" the run stops with the wave's index, not with
    # numpy's overflow warning from the worker
    config = SimulationConfig(GeneralizedF(1.0, 3.5, 2.0, d=3), ShiftedZeta(2.0), L=130, seed=5)
    plan = simulator._draw_plan(config)
    idx = 122
    degree, pole = int(plan.degrees[idx]), plan.poles[idx]
    assert idx >= WAVE_GROUP and degree == 5
    ring = np.linalg.svd(pole[None, :])[2][1:]        # orthonormal, orthogonal to pole
    points = np.vstack([ring, pole])
    poison_weight(monkeypatch, idx, 1.7e308 / (degree + 1) * 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for threads in (None, 2):
            with pytest.raises(SimulationError, match=f"at wave index {idx}$"):
                simulate(config, points, n_threads=threads)


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


def test_factor_columns_are_the_factor_rows_of_the_drawn_waves():
    # the benchmark oracle weights each wave by factor_columns(degree)[:, component]
    config = SimulationConfig(BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6),
                              GeometricDegrees(0.05), L=60, seed=3)
    plan = simulator._draw_plan(config)
    _, factors = simulator._wave_coefficients(config, plan)
    for row, degree, component in zip(factors, plan.degrees, plan.components):
        assert_array_equal(config.factor_columns(int(degree))[:, component], row)


SCALAR_CONFIG = SimulationConfig(NegativeBinomial(0.5, d=2), GeometricDegrees(0.05), L=4, seed=0)
VECTOR_CONFIG = SimulationConfig(BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6),
                                 GeometricDegrees(0.05), L=4, seed=0)
NORTH = WaveParams(epsilon=1, pole=np.array([0.0, 0.0, 1.0]), degree=2, component=0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: sample_pole(0, np.random.default_rng(0)), ValueError,
     "sphere dimension must be >= 1"),
    (lambda: wave_eval_scalar(NORTH, VECTOR_CONFIG, meridian_points(2, [0.1])),
     SimulationError, "scalar wave evaluation requires a univariate model"),
    (lambda: wave_eval_vector(NORTH, SCALAR_CONFIG, meridian_points(2, [0.1])),
     SimulationError, "vector wave evaluation requires a multivariate model"),
    (lambda: clt_marginal_samples(VECTOR_CONFIG, [1.0, 0.0, 0.0], 10,
                                  np.random.default_rng(0)),
     SimulationError, "marginal sampling is defined for scalar models"),
], ids=["sample_pole", "wave_eval_scalar", "wave_eval_vector", "clt_marginal_samples"])
def test_entry_points_reject_a_model_or_sphere_they_do_not_serve(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message
