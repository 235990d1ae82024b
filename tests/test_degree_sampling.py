import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import zeta as hurwitz_zeta
from scipy.stats import chi2

from turnarcs.covariance import (
    BivariateNegativeBinomial,
    BivariateSpectralMatern,
    Chentsov,
    Exponential,
    GeneralizedF,
    NegativeBinomial,
    SequenceCovariance,
    SequenceMultiCovariance,
    SpectralMatern,
)
from turnarcs.degree_sampling import (
    FiniteDegrees,
    GeometricDegrees,
    OddShiftedZeta,
    ShiftedZeta,
    mu3_converges,
    recommend_distribution,
    support_covers,
    theta_prime_max,
)
from turnarcs.cli import parse_degrees
from turnarcs.diagnostics import mu3_wave
from turnarcs.simulator import wave_rng


def gof_pvalue(dist, draws, cells=50):
    """Chi-square goodness of fit over the first `cells` support atoms plus
    one tail bucket; the pmf operation is the oracle."""
    support = np.array([n for n in range(10 * cells) if dist.in_support(n)][:cells])
    probs = np.array([dist.pmf(int(n)) for n in support])
    tail = 1.0 - probs.sum()
    pos = np.searchsorted(support, draws)
    pos = np.clip(pos, 0, cells - 1)
    in_cell = support[pos] == draws
    counts = np.bincount(pos[in_cell], minlength=cells).astype(float)
    observed = np.append(counts, np.count_nonzero(~in_cell))
    expected = len(draws) * np.append(probs, tail)
    keep = expected > 0
    stat = np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep])
    return chi2.sf(stat, df=keep.sum() - 1)


# ------------------------------------------------------------------------ pmf

def test_shifted_zeta_pmf_at_zero():
    # zeta(2) = pi^2/6
    assert ShiftedZeta(2.0).pmf(0) == pytest.approx(6.0 / np.pi**2, rel=1e-12)


def test_geometric_pmf_at_zero():
    assert GeometricDegrees(0.01).pmf(0) == pytest.approx(0.01)


def test_odd_zeta_pmf_outside_support():
    assert OddShiftedZeta(2.0).pmf(4) == 0.0
    assert OddShiftedZeta(2.0).pmf(0) == 0.0


def test_odd_zeta_pmf_values():
    dist = OddShiftedZeta(2.0)
    assert dist.pmf(1) == pytest.approx(6.0 / np.pi**2, rel=1e-12)
    assert dist.pmf(3) == pytest.approx(6.0 / np.pi**2 / 4.0, rel=1e-12)


LAW_CATALOG = [FiniteDegrees([0.2, 0.3, 0.5]), GeometricDegrees(0.1), ShiftedZeta(2.0),
               OddShiftedZeta(2.0)]
NOT_INT64 = [1.7, 2.5, -0.5, np.nan, np.inf, -np.inf, 2.0**63, 1e30, 2**70, np.uint64(2**63),
             np.array([1.0, 2.5])]


@pytest.mark.parametrize("law", LAW_CATALOG, ids=lambda law: law.spec_string())
def test_negative_degrees_have_no_mass_and_warn_nothing(law):
    # ShiftedZeta(2).log_pmf(-1) used to warn of a division by zero in log
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert law.pmf(-1) == 0.0
        assert law.log_pmf(-1) == -np.inf
        assert law.in_support(-1) is False
        degrees = np.array([[-1, 1], [-7, 2]])
        assert_array_equal(law.pmf(degrees), [[0.0, law.pmf(1)], [0.0, law.pmf(2)]])
        assert_array_equal(law.log_pmf(degrees)[:, 0], -np.inf)
        assert_array_equal(law.in_support(degrees)[:, 0], False)


@pytest.mark.parametrize("law", LAW_CATALOG, ids=lambda law: law.spec_string())
@pytest.mark.parametrize("degree", NOT_INT64, ids=repr)
def test_law_rejects_degrees_that_are_not_int64(law, degree):
    # at the parent pmf(1.7) was pmf(1), and log_pmf(2.5) was finite
    for method in (law.pmf, law.log_pmf, law.in_support):
        with pytest.raises(ValueError, match="integer within int64"):
            method(degree)


@pytest.mark.parametrize("law", LAW_CATALOG, ids=lambda law: law.spec_string())
def test_law_reads_integral_floats_and_any_integer_type(law):
    for method in (law.pmf, law.log_pmf, law.in_support):
        assert method(3.0) == method(3) == method(np.uint8(3)) == method(np.int32(3))
        assert_array_equal(method(np.array([0.0, 3.0])), method(np.array([0, 3])))


@settings(max_examples=60, deadline=None)
@given(law=st.sampled_from(LAW_CATALOG),
       degrees=st.lists(st.integers(-3, 400), min_size=1, max_size=12))
def test_law_array_call_equals_scalar_calls_bit_for_bit(law, degrees):
    for method in (law.pmf, law.log_pmf, law.in_support):
        singles = [method(k) for k in degrees]
        assert all(type(x) is type(singles[0]) for x in singles)
        assert method(np.array(degrees)).tobytes() == np.array(singles).tobytes()


@pytest.mark.parametrize("call, message", [
    (lambda: FiniteDegrees([]), "pmf must be a nonempty vector"),
    (lambda: FiniteDegrees([[0.5, 0.5]]), "pmf must be a nonempty vector"),
    (lambda: FiniteDegrees([1.5, -0.5]), "pmf entries must be finite and nonnegative"),
    (lambda: FiniteDegrees([np.nan, 1.0]), "pmf entries must be finite and nonnegative"),
    (lambda: GeometricDegrees(1.0), "success probability must lie in (0, 1), got 1.0"),
    (lambda: ShiftedZeta(1.0), "zeta exponent must exceed 1, got 1.0"),
    (lambda: OddShiftedZeta(0.5), "zeta exponent must exceed 1, got 0.5"),
    (lambda: support_covers(GeometricDegrees(0.5), NegativeBinomial(0.5), -1),
     "n_max must be nonnegative"),
], ids=["finite-empty", "finite-2d", "finite-negative", "finite-nan", "geometric-p",
        "zeta-theta", "oddzeta-theta", "support-n-max"])
def test_law_parameter_checks_name_the_parameter(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message


def test_finite_pmf_must_normalize():
    with pytest.raises(ValueError):
        FiniteDegrees([0.5, 0.4])
    FiniteDegrees([0.5, 0.5])


@pytest.mark.parametrize(
    "dist, tail",
    [
        (FiniteDegrees([0.2, 0.3, 0.5]), lambda N: 0.0),
        (GeometricDegrees(0.01), lambda N: (1.0 - 0.01) ** (N + 1)),
        (
            ShiftedZeta(2.0),
            lambda N: hurwitz_zeta(2.0, N + 2) / hurwitz_zeta(2.0, 1),
        ),
        (
            OddShiftedZeta(2.0),
            lambda N: hurwitz_zeta(2.0, (N - 1) // 2 + 2) / hurwitz_zeta(2.0, 1),
        ),
    ],
)
def test_pmf_plus_analytic_tail_brackets_one(dist, tail):
    N = 999
    partial = sum(dist.pmf(n) for n in range(N + 1))
    assert partial + tail(N) == pytest.approx(1.0, abs=1e-9)


# -------------------------------------------------------------------- sampling

def test_finite_sampler_never_draws_a_trailing_atom_of_zero_mass():
    # ten masses of 0.1 sum to one ulp below 1; the CDF is 1 from the last
    # positive atom on, so a uniform just below 1 takes degree 9, not 10
    law = FiniteDegrees([0.1] * 10 + [0.0])
    degrees, accepted = law._row_degrees(np.array([[1 - 2**-53], [0.95], [0.0]]))
    assert degrees.tolist() == [9, 9, 0] and accepted.all()
    assert law.pmf(degrees).min() > 0.0


def test_degenerate_finite_sampler():
    dist = FiniteDegrees([1.0])
    rng = np.random.default_rng(0)
    assert np.all(dist.sample(rng, size=100) == 0)


def test_finite_sampler_gof():
    dist = FiniteDegrees([0.2, 0.3, 0.5])
    rng = np.random.default_rng(11)
    draws = dist.sample(rng, size=1_000_000)
    assert gof_pvalue(dist, draws, cells=3) > 1e-3


def test_geometric_sampler_mean():
    dist = GeometricDegrees(0.01)
    rng = np.random.default_rng(5)
    draws = dist.sample(rng, size=1_000_000)
    se = np.sqrt(1.0 - 0.01) / 0.01 / np.sqrt(draws.size)
    assert abs(draws.mean() - 99.0) < 3.0 * se


def test_geometric_sampler_gof():
    dist = GeometricDegrees(0.01)
    rng = np.random.default_rng(7)
    draws = dist.sample(rng, size=1_000_000)
    assert gof_pvalue(dist, draws) > 1e-3


def test_shifted_zeta_sampler_gof():
    dist = ShiftedZeta(2.0)
    rng = np.random.default_rng(13)
    draws = dist.sample(rng, size=1_000_000)
    assert gof_pvalue(dist, draws) > 1e-3


def test_odd_zeta_sampler_gof():
    dist = OddShiftedZeta(1.5)
    rng = np.random.default_rng(17)
    draws = dist.sample(rng, size=1_000_000)
    assert np.all(draws % 2 == 1)
    assert gof_pvalue(dist, draws) > 1e-3


def test_scalar_sampling_in_support():
    rng = np.random.default_rng(3)
    for dist in (GeometricDegrees(0.3), ShiftedZeta(2.0), OddShiftedZeta(2.0)):
        for _ in range(50):
            assert dist.in_support(dist.sample(rng))


# law.sample(wave_rng(seed, idx)) for seeds 0 and 2**64 + 7, idx = 0..3, and
# law.sample(wave_rng(3, 2**40), size=6), recorded before draw attempts were
# read as rows: each degree with the stream position after it (Philox counter
# word 0, buffer position).  They pin the stream reads and the arithmetic of
# both sample paths bit for bit.
GOLDEN_DRAWS = {
    "zeta:1.1": ([[(3389535817, 32, 4), (16, 32, 4), (3702, 32, 4), (1703, 32, 4)],
                  [(2, 32, 4), (21343, 32, 4), (9561, 32, 4), (1472, 32, 4)]],
                 ([2, 18331577, 46155, 210, 128, 335], (32, 4))),
    "zeta:2": ([[(7, 32, 4), (0, 32, 4), (0, 32, 4), (1, 32, 4)],
                [(0, 32, 4), (0, 32, 4), (1, 32, 4), (1, 32, 4)]],
               ([0, 4, 1, 0, 0, 0], (32, 4))),
    "oddzeta:2.5": ([[(7, 32, 4), (1, 32, 4), (1, 32, 4), (1, 32, 4)],
                     [(1, 32, 4), (1, 32, 4), (1, 32, 4), (1, 32, 4)]],
                    ([1, 5, 3, 1, 1, 1], (32, 4))),
    "zeta:7": ([[(0, 32, 4)] * 4, [(0, 32, 4)] * 4], ([0] * 6, (32, 4))),
    "geometric:0.01": ([[(1, 1, 1), (167, 1, 1), (167, 1, 1), (64, 1, 1)],
                        [(204, 1, 1), (213, 1, 1), (45, 1, 1), (65, 1, 1)]],
                       ([207, 20, 41, 87, 94, 81], (2, 2))),
    "finite:0.2,0,0.5,0.3": ([[(0, 1, 1), (3, 1, 1), (3, 1, 1), (2, 1, 1)],
                              [(3, 1, 1), (3, 1, 1), (2, 1, 1), (2, 1, 1)]],
                             ([3, 0, 2, 2, 2, 2], (2, 2))),
}


def stream_position(rng):
    state = rng.bit_generator.state
    return int(state["state"]["counter"][0]), state["buffer_pos"]


@pytest.mark.parametrize("spec", sorted(GOLDEN_DRAWS))
def test_draws_match_recorded_degrees_and_stream_positions(spec):
    law = parse_degrees(spec)
    scalar, (batch, batch_position) = GOLDEN_DRAWS[spec]
    for seed, recorded in zip((0, 2**64 + 7), scalar):
        for idx, (degree, *position) in enumerate(recorded):
            rng = wave_rng(seed, idx)
            got = law.sample(rng)
            assert type(got) is int and got == degree
            assert stream_position(rng) == tuple(position)
    rng = wave_rng(3, 2**40)
    got = law.sample(rng, size=6)
    assert got.dtype == np.int64 and got.tolist() == batch
    assert stream_position(rng) == batch_position


@settings(max_examples=40, deadline=None)
@given(make=st.sampled_from([ShiftedZeta, OddShiftedZeta]),
       theta=st.sampled_from([1.1, 1.5, 2.0, 2.5, 3.7, 7.0]),
       seed=st.integers(2**65, 2**80))
@example(make=GeometricDegrees, theta=0.01, seed=2**65)
@example(make=lambda _: FiniteDegrees([0.2, 0.0, 0.5, 0.3]), theta=0.0, seed=2**65)
def test_rows_read_as_sample_reads_them_give_its_degrees(make, theta, seed):
    # a draw attempt is one row of law._row_width uniforms; rows read from
    # 50 streams and turned into degrees together give every accepted
    # stream's sample(rng), bit for bit
    law = make(theta)
    rows = np.stack([wave_rng(seed, idx).random(law._row_width) for idx in range(50)])
    degrees, accepted = law._row_degrees(rows)
    assert accepted.dtype == bool and accepted.shape == (50,)
    for idx in np.flatnonzero(accepted):
        rng = wave_rng(seed, idx)
        assert law.sample(rng) == int(degrees[idx])
        one_row = wave_rng(seed, idx)
        one_row.random(law._row_width)
        assert stream_position(rng) == stream_position(one_row)


@pytest.mark.parametrize("p", [1e-300, 5e-324])
def test_degree_beyond_int64_raises(p):
    # an inversion's floor of 1e300 (or inf) has no int64: both sample
    # paths raise naming the law, with no cast warning (an error here)
    law = GeometricDegrees(p)
    for size in (None, 5):
        with pytest.raises(ValueError, match=f"law {law.spec_string()} drew a degree beyond int64$"):
            law.sample(np.random.default_rng(0), size=size)


# ---------------------------------------------------------------- recommend

def test_recommend_spectral_matern():
    rec = recommend_distribution(SpectralMatern(1.0, 0.75, d=2))
    assert rec.case == 3
    assert rec.interval == (1.0, 6.0 * 0.75 + 1.0)
    assert isinstance(rec.distribution, ShiftedZeta)
    assert rec.distribution.theta == 2.0
    assert rec.warning is None


def test_recommend_nb_geometric():
    rec = recommend_distribution(NegativeBinomial(0.5, d=2))
    assert rec.case == 2
    assert isinstance(rec.distribution, GeometricDegrees)
    assert 1.0 - rec.distribution.p >= 0.5**3


def test_recommend_generalized_f():
    rec = recommend_distribution(GeneralizedF(1.0, 3.5, 2.0, d=3))
    assert rec.case == 3
    assert rec.interval == (1.0, 3.0 * 3.5 - 2.0)
    assert isinstance(rec.distribution, ShiftedZeta)


def test_recommend_chentsov_odd_support():
    rec = recommend_distribution(Chentsov(d=2))
    assert isinstance(rec.distribution, OddShiftedZeta)
    assert rec.warning is None


@pytest.mark.parametrize("d", [8, 16])
def test_recommend_chentsov_empty_interval_flagged(d):
    rec = recommend_distribution(Chentsov(d=d))
    assert rec.case == 3
    assert rec.interval[1] <= 1.0
    assert rec.warning == "Berry-Esseen bound not guaranteed finite"
    assert rec.distribution.theta == 2.0


def test_recommend_finite_sequence():
    rec = recommend_distribution(SequenceCovariance([0.6, 0.3, 0.1], d=2))
    assert rec.case == 1
    np.testing.assert_allclose(rec.distribution.probs, [0.6, 0.3, 0.1], atol=1e-14)


@pytest.mark.parametrize("delta", [0.1, 0.5, 0.9, 0.999])
def test_case2_criterion_symbolic(delta):
    rec = recommend_distribution(NegativeBinomial(delta, d=2))
    # the n-th root of the geometric pmf tends to 1-p, which must exceed delta^3
    assert 1.0 - rec.distribution.p > delta**3


@pytest.mark.parametrize(
    "dist, tail",
    [
        (FiniteDegrees([0.2, 0.3, 0.5, 0.0]), ("finite", 2)),
        (GeometricDegrees(0.25), ("geometric", 0.75)),
        (ShiftedZeta(2.5), ("zeta", 2.5)),
        (OddShiftedZeta(1.5), ("zeta", 1.5)),
    ],
)
def test_tail_of_each_law(dist, tail):
    assert dist.tail() == tail


@settings(max_examples=100, deadline=None)
@given(theta=st.floats(0.5, 20.0), d=st.integers(1, 40))
@example(theta=2.0, d=2)        # Chentsov on the 2-sphere: interval (1, 4)
@example(theta=8.0, d=8)        # Chentsov on the 8-sphere: empty interval
def test_convergence_test_matches_theta_prime_max_at_both_ends(theta, d):
    # zeta exponents are > 1, so the interval is (1, theta_prime_max)
    decay = ("poly", theta)
    tp_max = theta_prime_max(theta, d)
    below_top = np.nextafter(tp_max, -np.inf)
    above_one = np.nextafter(1.0, np.inf)
    assert not mu3_converges(decay, ("zeta", tp_max), d)
    if below_top > 1.0:
        assert mu3_converges(decay, ("zeta", below_top), d)
    assert mu3_converges(decay, ("zeta", above_one), d) == (above_one < tp_max)
    assert not mu3_converges(decay, ("geometric", 0.5), d)
    assert mu3_converges(decay, ("finite", 3), d)


@pytest.mark.parametrize("r", [0.1, 0.5, 0.9, 0.999])
def test_convergence_test_geometric_boundary_is_strict(r):
    decay = ("geometric", r)
    assert not mu3_converges(decay, ("geometric", r**3), 2)
    assert mu3_converges(decay, ("geometric", np.nextafter(r**3, 2.0)), 2)
    assert mu3_converges(decay, ("zeta", 1.5), 5)


D = st.integers(2, 10)
UNIT = st.floats(0.01, 0.99)
NB_DELTA = st.one_of(UNIT, st.floats(0.99, 1.0, exclude_min=True, exclude_max=True))
POSITIVE = st.floats(0.05, 5.0)


@st.composite
def bivariate_nb(draw):
    d11, d22, u, v = draw(NB_DELTA), draw(NB_DELTA), draw(UNIT), draw(UNIT)
    d12 = u * min(d11, d22)
    bound = np.sqrt((1.0 - d11) * (1.0 - d22)) / (1.0 - d12)
    return BivariateNegativeBinomial(d11, d12, d22, rho=v * bound, d=draw(D))


def sm_nu(d):
    """Spectral-Matern exponents above (d-2)/2, where the series converges."""
    return st.floats(0.5 * d - 0.95, 0.5 * d + 4.0)


@st.composite
def bivariate_sm(draw):
    d = draw(D)
    alpha, nu11, nu22 = draw(POSITIVE), draw(sm_nu(d)), draw(sm_nu(d))
    nu12 = 0.5 * (nu11 + nu22) + draw(UNIT)
    bound = min(1.0, alpha ** (2.0 * nu12 - nu11 - nu22))
    return BivariateSpectralMatern(alpha, nu11, nu12, nu22, rho=draw(UNIT) * bound, d=d)


CATALOG = st.one_of(
    st.builds(NegativeBinomial, NB_DELTA, d=D),
    D.flatmap(lambda d: st.builds(SpectralMatern, POSITIVE, sm_nu(d), d=st.just(d))),
    D.flatmap(lambda d: st.builds(GeneralizedF, POSITIVE, st.floats(d - 1.95, d + 3.0),
                                  POSITIVE, d=st.just(d))),
    st.builds(Chentsov, d=D),
    st.builds(Exponential, POSITIVE, d=D),
    st.builds(SequenceCovariance,
              st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6).filter(any), d=D),
    bivariate_nb(),
    bivariate_sm(),
)


@settings(max_examples=80, deadline=None)
@given(model=CATALOG)
@example(model=NegativeBinomial(0.999, d=2))
@example(model=Chentsov(d=8))
def test_recommended_law_has_finite_mu3_unless_warned(model):
    # the finite flag is settled before any term is summed, so a short
    # truncation keeps the check cheap
    rec = recommend_distribution(model)
    components = [model] if model.p == 1 else [model.component(i) for i in range(model.p)]
    finite = all(mu3_wave(c, rec.distribution, n_max=8).finite for c in components)
    assert finite == (rec.warning is None)


def test_recommend_matrix_sequence_weights_degrees_by_largest_entry():
    # the finite case reads a multivariate model through magnitude: the
    # largest |B_n| entry times G_n(1) = n + 1 on the 3-sphere
    model = SequenceMultiCovariance([np.eye(2), np.zeros((2, 2)),
                                     [[0.25, -0.5], [-0.5, 1.0]]], d=3)
    rec = recommend_distribution(model)
    assert rec.case == 1 and rec.warning is None
    assert_allclose(rec.distribution.pmf(np.arange(4)), [0.25, 0.0, 0.75, 0.0], rtol=1e-15)


def test_theta_prime_max_branches():
    assert theta_prime_max(2.5, 2) == pytest.approx(5.5)
    assert theta_prime_max(3.0, 3) == pytest.approx(4.0)
    assert theta_prime_max(8.0, 8) == pytest.approx(24.0 - 5.0 - 18.0)


# ------------------------------------------------------------- support_covers

def test_support_covers_zeta_over_nb():
    assert support_covers(ShiftedZeta(2.0), NegativeBinomial(0.5, d=2), 100) is None


def test_support_covers_odd_misses_degree_zero():
    assert support_covers(OddShiftedZeta(2.0), NegativeBinomial(0.5, d=2), 100) == 0


def test_support_covers_odd_over_chentsov():
    assert support_covers(OddShiftedZeta(2.0), Chentsov(d=2), 100) is None


def test_support_covers_matrix_models():
    nb2 = BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6)
    assert support_covers(FiniteDegrees([0.5, 0.5]), nb2, 100) == 2
    assert support_covers(OddShiftedZeta(2.0), nb2, 100) == 0
    gap = SequenceMultiCovariance([np.eye(2), np.zeros((2, 2)), np.eye(2)], d=2)
    assert support_covers(FiniteDegrees([0.5, 0.0, 0.5]), gap, 100) is None
    assert support_covers(FiniteDegrees([1.0]), gap, 100) == 2


@pytest.mark.parametrize(
    "spec",
    [
        NegativeBinomial(0.5, d=2),
        SpectralMatern(1.0, 0.75, d=2),
        GeneralizedF(1.0, 3.5, 2.0, d=3),
        Chentsov(d=2),
        Chentsov(d=8),
        Exponential(1.0, d=2),
        SequenceCovariance([0.6, 0.0, 0.4], d=1),
    ],
)
def test_recommendation_covers_own_support(spec):
    rec = recommend_distribution(spec)
    assert support_covers(rec.distribution, spec, 10_000) is None
