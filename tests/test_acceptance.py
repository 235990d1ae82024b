"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with -s to see them on success) and enforcing both the
stated tolerance and the stated runtime budget."""

import time

import numpy as np
from conftest import gof_pvalue, meridian_points
from scipy.special import gamma as gamma_fn

from turnarcs.cli import main
from turnarcs.covariance import (
    BivariateNegativeBinomial,
    Chentsov,
    Exponential,
    GeneralizedF,
    NegativeBinomial,
    SequenceCovariance,
    SpectralMatern,
    schoenberg_coeff_quadrature,
)
from turnarcs.degree_sampling import (
    FiniteDegrees,
    GeometricDegrees,
    OddShiftedZeta,
    ShiftedZeta,
    recommend_distribution,
)
from turnarcs.diagnostics import (
    berry_esseen_report,
    duplication_check,
    ks_normality,
    mu3_gegenbauer,
    mu3_wave,
)
from turnarcs.grids import LatLonGrid, build_grid
from turnarcs.simulator import (
    SimulationConfig,
    clt_marginal_samples,
    simulate,
    single_wave_values,
)


def report(num, ok, detail, elapsed, limit):
    line = (f"[acceptance {num}] {'PASS' if ok else 'FAIL'}: {detail} "
            f"({elapsed:.1f}s of {limit}s budget)")
    print(line)
    assert ok, line
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget: {elapsed:.1f}s"


def test_criterion_1_coefficient_oracle_equivalence():
    started = time.perf_counter()
    worst_chentsov = 0.0
    worst_exponential = 0.0
    evens_zero = True
    for d in (2, 3, 5):
        chentsov = Chentsov(d=d)
        exponential = Exponential(1.0, d=d)
        for n in range(51):
            b_c = chentsov.schoenberg_coeff(n)
            if n % 2 == 0:
                evens_zero &= b_c == 0.0
            else:
                got = schoenberg_coeff_quadrature(
                    chentsov.covariance, n, d, abs_tol=max(1e-16, 1e-9 * b_c)
                )
                worst_chentsov = max(worst_chentsov, abs(got - b_c) / b_c)
            b_e = exponential.schoenberg_coeff(n)
            got = schoenberg_coeff_quadrature(
                exponential.covariance, n, d, abs_tol=max(1e-16, 1e-7 * b_e)
            )
            worst_exponential = max(worst_exponential, abs(got - b_e) / b_e)
    elapsed = time.perf_counter() - started
    ok = evens_zero and worst_chentsov <= 1e-8 and worst_exponential <= 1e-6
    report(1, ok,
           f"closed form vs inversion quadrature, n<=50, d in (2,3,5): "
           f"worst rel {worst_chentsov:.2e} (chentsov, tol 1e-8), "
           f"{worst_exponential:.2e} (exponential, tol 1e-6), even degrees exactly 0",
           elapsed, 60)


def test_criterion_2_normalization():
    started = time.perf_counter()
    errs = {}
    errs["nb"] = abs(NegativeBinomial(0.5, d=2).coeff_table(200).sum() - 1.0)
    errs["exponential"] = abs(Exponential(1.0, d=2).coeff_table(2**21).sum() - 1.0)
    errs["sm"] = abs(SpectralMatern(1.0, 0.75, d=2).coeff_table(2**13).sum() - 1.0)
    elapsed = time.perf_counter() - started
    ok = all(e <= 1e-6 for e in errs.values())
    detail = ", ".join(f"{k}: |sum-1| = {v:.2e}" for k, v in errs.items())
    report(2, ok, "coefficient sums reach the variance within 1e-6 -- " + detail,
           elapsed, 10)


def _single_wave_z(config, points, theory, M, seed, component=(0, 0)):
    rng = np.random.default_rng(seed)
    waves = single_wave_values(config, points, M, rng)
    prods = waves[:, [0], component[0]] * waves[:, :, component[1]]
    mc = prods.mean(axis=0)
    se = prods.std(axis=0) / np.sqrt(M)
    return np.max(np.abs(mc - theory) / se)


def test_criterion_3_single_wave_covariance():
    started = time.perf_counter()
    M = 100_000
    thetas = np.linspace(0.0, np.pi, 10)
    zs = {}

    spec = NegativeBinomial(0.5, d=2)
    config = SimulationConfig(spec, GeometricDegrees(0.01), L=1, seed=0)
    zs["nb d=2"] = _single_wave_z(
        config, meridian_points(2, thetas), spec.covariance(thetas), M, 101
    )

    spec = GeneralizedF(1.0, 3.5, 2.0, d=3)
    config = SimulationConfig(spec, ShiftedZeta(2.0), L=1, seed=0)
    zs["f d=3"] = _single_wave_z(
        config, meridian_points(3, thetas), spec.covariance(thetas), M, 102
    )

    spec = SequenceCovariance([0.5, 0.3, 0.2], d=1)  # loads degree 0
    config = SimulationConfig(spec, FiniteDegrees([0.4, 0.3, 0.3]), L=1, seed=0)
    zs["circle"] = _single_wave_z(
        config, meridian_points(1, thetas), spec.covariance(thetas), M, 103
    )

    spec = BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6, d=2)
    config = SimulationConfig(spec, GeometricDegrees(0.01), L=1, seed=0)
    points = meridian_points(2, thetas)
    cross_theory = 0.6 * NegativeBinomial(0.2, d=2).covariance(thetas)
    zs["nb2 cross"] = _single_wave_z(config, points, cross_theory, M, 104, (0, 1))
    zs["nb2 diag1"] = _single_wave_z(
        config, points, NegativeBinomial(0.2, d=2).covariance(thetas), M, 105, (0, 0)
    )
    zs["nb2 diag2"] = _single_wave_z(
        config, points, NegativeBinomial(0.7, d=2).covariance(thetas), M, 106, (1, 1)
    )

    elapsed = time.perf_counter() - started
    ok = all(z < 4.0 for z in zs.values())
    detail = ", ".join(f"{k}: {v:.2f}" for k, v in zs.items())
    report(3, ok, f"single-wave covariance at 10 lags, {M} waves, max |z| -- " + detail,
           elapsed, 120)


def test_criterion_4_duplication_formula():
    started = time.perf_counter()
    rng = np.random.default_rng(4000)
    base_pairs = [
        (np.array([1.0, 0.0, 0.0]), np.array([0.5, np.sqrt(0.75), 0.0])),
        (np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])),
        (np.array([1.0, 0.0, 0.0]), np.array([-0.3, np.sqrt(0.91), 0.0])),
    ]
    worst = 0.0
    for d in (2, 3):
        for x1, x2 in base_pairs:
            x1d = np.zeros(d + 1)
            x1d[:3] = x1
            x2d = np.zeros(d + 1)
            x2d[:3] = x2
            for n in range(4):
                for k in range(4):
                    out = duplication_check(n, k, d, x1d, x2d, 1_000_000, rng)
                    if out.se > 0:
                        worst = max(worst, abs(out.mc_mean - out.analytic) / out.se)
                    else:
                        assert out.mc_mean == out.analytic
    elapsed = time.perf_counter() - started
    report(4, worst < 4.0,
           f"pole-product identity, (n,k) in 0..3 square, d in (2,3), 3 point pairs, "
           f"1e6 poles: worst |z| = {worst:.2f}", elapsed, 60)


def test_criterion_5_berry_esseen_consistency():
    started = time.perf_counter()
    spec = NegativeBinomial(0.5, d=2)
    dist = GeometricDegrees(0.01)
    M = 10_000
    point = [1.0, 0.0, 0.0]

    be = berry_esseen_report(spec, dist, 1500)
    config_hi = SimulationConfig(spec, dist, L=1500, seed=0)
    ks_hi = ks_normality(
        clt_marginal_samples(config_hi, point, M, np.random.default_rng(2025)), be.sigma
    )
    config_lo = SimulationConfig(spec, dist, L=15, seed=0)
    ks_lo = ks_normality(
        clt_marginal_samples(config_lo, point, M, np.random.default_rng(2026)), be.sigma
    )
    # sampling error of an empirical KS value at this M (95% null band scale)
    ks_err = 1.36 / np.sqrt(M)
    elapsed = time.perf_counter() - started
    ok = ks_hi <= be.bound + 3.0 * ks_err and ks_lo > ks_hi
    report(5, ok,
           f"KS(L=1500) = {ks_hi:.4f} <= bound {be.bound:.4f} + 3x{ks_err:.4f}; "
           f"KS(L=15) = {ks_lo:.4f} exceeds it (striation regime)",
           elapsed, 300)


def test_criterion_6_theta_prime_intervals():
    started = time.perf_counter()
    sm = recommend_distribution(SpectralMatern(1.0, 0.75, d=2))
    ok = sm.interval == (1.0, 6.0 * 0.75 + 1.0)
    f = recommend_distribution(GeneralizedF(1.0, 3.5, 2.0, d=3))
    ok &= f.interval == (1.0, 3.0 * 3.5 - 2.0)
    flagged = True
    for d in (8, 16):
        rec = recommend_distribution(Chentsov(d=d))
        flagged &= rec.warning == "Berry-Esseen bound not guaranteed finite"
        flagged &= rec.interval[1] <= 1.0
        flagged &= isinstance(rec.distribution, OddShiftedZeta)
    ok &= flagged
    elapsed = time.perf_counter() - started
    report(6, ok,
           "exact exponent intervals (1, 6nu+1) at d=2 and (1, 3nu-2) at d=3; "
           "empty-interval warning for the odd-degree model at d >= 8",
           elapsed, 1)


def test_criterion_7_sampler_gof():
    started = time.perf_counter()
    zeta_p = gof_pvalue(ShiftedZeta(2.0), ShiftedZeta(2.0).sample(np.random.default_rng(71), 10**6))
    geom_p = gof_pvalue(GeometricDegrees(0.01), GeometricDegrees(0.01).sample(np.random.default_rng(72), 10**6))
    elapsed = time.perf_counter() - started
    ok = zeta_p > 1e-3 and geom_p > 1e-3
    report(7, ok,
           f"chi-square GOF at 1e6 draws: p = {zeta_p:.3f} (zeta), {geom_p:.3f} (geometric)",
           elapsed, 30)


def test_criterion_8_performance_desk_scale():
    grid = build_grid(LatLonGrid(500, 500))
    spec = NegativeBinomial(0.5, d=2)
    dist = GeometricDegrees(0.01)

    started = time.perf_counter()
    simulate(SimulationConfig(spec, dist, L=15, seed=42), grid.points)
    t_low = time.perf_counter() - started

    started = time.perf_counter()
    simulate(SimulationConfig(spec, dist, L=1500, seed=42), grid.points)
    t_high = time.perf_counter() - started

    ok = t_low <= 4.0 and t_high <= 120.0
    report(8, ok,
           f"500x500 grid (250000 points), single-threaded wall time: "
           f"L=15 in {t_low:.2f}s (limit 4), L=1500 in {t_high:.1f}s (limit 120)",
           t_low + t_high, 124)


def test_criterion_9_reproducibility(tmp_path):
    started = time.perf_counter()
    args = [
        "simulate", "--model", "nb", "--d", "2", "--delta", "0.5",
        "--degree-dist", "geometric:0.01", "--L", "64", "--seed", "9",
        "--grid", "latlon:20x20",
    ]
    seq1 = tmp_path / "seq1.csv"
    seq2 = tmp_path / "seq2.csv"
    assert main(args + ["--out", str(seq1)]) == 0
    assert main(args + ["--out", str(seq2)]) == 0
    same_run = seq1.read_bytes() == seq2.read_bytes()
    elapsed = time.perf_counter() - started
    report(9, same_run,
           "identical seeds give byte-identical CSV across repeated runs", elapsed, 60)


def test_criterion_10_third_moment_trends():
    started = time.perf_counter()
    # closed-form envelope bound for d=2, with the integral of sin^(-1/2)
    # evaluated correctly: (2/(n pi))^(3/2) (sqrt(pi)/2) Gamma(1/4)/Gamma(3/4).
    # (The printed form of this constant omits the sqrt(pi)/2 and divides by
    # pi; the quadrature values refute that variant, see the decisions log.)
    const = (2.0 / np.pi) ** 1.5 * 0.5 * np.sqrt(np.pi) * gamma_fn(0.25) / gamma_fn(0.75)
    scaled = {n: mu3_gegenbauer(n, 2) * n**1.5 for n in (4, 16, 64, 256)}
    bounded = all(v <= const for v in scaled.values())
    decreasing = all(
        mu3_gegenbauer(a, 2) > mu3_gegenbauer(b, 2)
        for a, b in ((4, 16), (16, 64), (64, 256))
    )

    tails_ok = True
    stable_ok = True
    for delta in (0.2, 0.7):  # the two published bivariate components
        spec = NegativeBinomial(delta, d=2)
        dist = GeometricDegrees(0.01)
        base = mu3_wave(spec, dist)
        doubled = mu3_wave(spec, dist, n_max=2 * base.n_max)
        tails_ok &= base.finite and base.relative_tail < 1e-4
        stable_ok &= abs(doubled.value - base.value) < 1e-4 * base.value
    elapsed = time.perf_counter() - started
    ok = bounded and decreasing and tails_ok and stable_ok
    report(10, ok,
           f"scaled d=2 moment sequence bounded by {const:.3f} and decreasing "
           f"(n^1.5 mu3 at n=256: {scaled[256]:.3f}); wave moment finite with "
           "self-consistent tail (<1e-4 relative change on doubling)",
           elapsed, 60)
