"""Print one SHA-256 digest per simulation case, to compare two checkouts
bit for bit.

    python3 scripts/bit_digests.py > digests.txt
    python3 scripts/bit_digests.py --save DIR
    python3 scripts/bit_digests.py --compare DIR

Run it in two checkouts and diff the two outputs: every line that differs is
a case whose output bits moved.  The package is imported from the src/
directory next to this script, never from an installed copy.

To see by how much the bits moved, run the first checkout with --save DIR,
which also keeps each case's values as DIR/<case>.npy and the printed lines
as DIR/digests.txt, then the second with --compare DIR: it prints each line
whose digest differs from DIR's, with the largest |difference| between the
two cases' values relative to the RMS of DIR's values, and a last line
counting the moved lines.  A case's values are its array, the numbers of
its CSV rows or report lines, its law draws or its method codes.

Cases:
  - the four benchmark workload configs (perfbench/workloads.py), config
    seeds 0-2, 2**64 + 3 and 2**65 + 4: `simulate` values with n_threads
    None and 2; the CSV rows of `turnarcs simulate` for the CLI workload
    (header lines left out); the `turnarcs validate` report without its
    wall time;
  - the CSV rows of `turnarcs simulate` on slice3, section and point-list
    grids, p = 1 and 2, seeds as above: coordinate columns that repeat
    values (a slice's w, also as -0) and ones that repeat none (a point
    list's x0..xd), with row counts across the writer's 4096-row chunks;
  - L = 300 waves on 500 fixed points for the circle with a finite law,
    Chentsov d = 5 under oddzeta:2, bivariate nb under zeta:2, F d = 3
    under zeta:2, the bivariate spectral-Matern model of example 2's valid
    variant under zeta:2 and a three-variate matrix sequence (one of its
    matrices singular, so its factor takes the eigen square root) under a
    finite law, seeds 2**70 + 0-2, n_threads None and 2;
  - one case per profile method mix, on its own point count, seeds as
    above: the circle on 40 points, nb d = 4 on 10,000 points (recurrence
    tables), and F d = 2 under zeta:1.5 on 3 points (heavy exact rows, up
    to degree 591,899); `simulate` with n_threads None and 2, and 60
    `single_wave_values` rows (the batch path) at rng seeds 0-5;
  - raw `simulate_ensemble` values: the validate workload's config at rng
    seeds 0-2, and a bivariate nb d = 2 ensemble whose 60 realizations take
    four draw chunks under a chunk budget of 200,000 value doubles;
  - `simulate` on 16,385 points, one more than a `POINT_BLOCK` tile, so the
    last tile holds one point: nb at d = 2 and d = 8, seeds 2**70 + 0-2,
    n_threads None and 2;
  - `simulate` on 8,192 and 8,193 points, either side of the point count
    (`POINT_BLOCK // 2`) where `_wave_sums` turns from the degree-sorted
    sweep to one wave at a time: nb d = 2, bivariate nb d = 2 and F d = 3
    under zeta:2, seeds 2**70 + 0-2, n_threads None and 2; and
    `simulate_ensemble` on 9,000 points, the validate workload's config and
    a bivariate nb d = 2 one, at rng seeds 0-2;
  - Chentsov d = 3 under zeta:2, whose even degrees have weight 0 and so
    make many values exactly 0.0, on 8,192 and 8,193 points, either side of
    the same switch, with L = 2 and L = 20: `simulate` at seeds 2**70 + 0-2,
    n_threads None and 2, and 8 realizations of `simulate_ensemble` at rng
    seeds 0-2;
  - `simulate` of Chentsov d = 8 under oddzeta:2, most of whose rows have
    degree 1 and so make one affine map per group, on the section grids
    section:8:64x128 (8,192 points) and section:8:3x2731 (8,193), either
    side of the same switch: L = 70 waves, seeds 2**70 + 0-2, n_threads
    None and 2;
  - `simulate` on 20,000 points with L = 200 waves, three full groups of
    `WAVE_GROUP` waves and one partial group, one wave at a time over point
    tiles: nb d = 2 and bivariate nb d = 2, seeds 2**70 + 0-2, n_threads
    None and 2;
  - point sets that pair up as exact antipodes, where `_wave_sums`
    evaluates every row at one point of each pair: a `simulate_ensemble` of
    nb d = 2 under zeta:2 on latlon:8x16 (L = 100, 20 realizations, rng
    seeds 0-2), `simulate` of nb d = 5 and bivariate nb d = 5 on
    section:5:16x32 (L = 70, seeds 2**70 + 0-2, n_threads None and 2), 60
    `single_wave_values` rows of nb d = 2 and of bivariate nb d = 2 on
    latlon:6x10 at rng seeds 0-5, and circle rows: nb d = 1 under
    geometric:0.1 on 64 points of the circle, the later 32 the negations
    of the earlier, `simulate` (L = 300, seeds 2**70 + 0-2, n_threads None
    and 2) and 60 `single_wave_values` rows at rng seeds 0-5 (the ensemble
    lines above, the validate workload and the workloads on latlon:250x250
    and latlon:100x200 pair up too);
  - rows either side of the series cap, SERIES_MAX_DEGREE = 2 * POINT_BLOCK
    = 32,768: F d = 2 waves of degree 32,768 (series) and 32,769 (exact
    recurrence) on 5 points, three poles and signs each, one
    `wave_eval_scalar` at a time and all six as one batch of
    `_wave_sums`;
  - each degree law's scalar draws from the per-wave streams and one batch
    draw from a default_rng, with the stream state after them; one pole per
    dimension with the stream state after it;
  - one `methods` line: the profile method `simulator._profile_methods`
    gives every degree 0 to 40,000 and the heavy degrees 1e6, 1e9, 2**53 + 1,
    2**62 and 2**63 - 1, on d = 1, 2, 3, 4, 8 and 256 and on the point counts
    of METHOD_POINTS.  The degrees cover every threshold of the method rule
    on those point counts: the series' limits 8 and 32,768, the Fourier column
    limit (36,905 at most, on 600,000 points) and each break-even between two
    methods;
  - `turnarcs validate` reports without their wall time, seeds 0-2: nb
    d = 2 on latlon:20x40 with `--max-pairs 2000` (its 320,400 pairs are
    subsampled), and the spectral-Matern model d = 2 under zeta:2 with
    M = 10, whose 131,072-term covariance series sets the theory column;
  - `covariance` values at one angle and at 50 angles drawn at rng seeds
    0-2: sequence models on d = 1 and 2, a three-variate matrix sequence,
    the spectral-Matern model on d = 2 and 3 and the F model on d = 2 and 3;
  - the bin index `pair_lag_bins` gives every point pair i <= j of
    latlon:20x40 and latlon:10x20 at 8, 16 and 20 bins, whose meridian
    pairs put lags on bin edges.

A d = 3 line also names the number of drawn waves above the Fourier column
limit (`heavy=`); their profiles come from the closed form
sin((n+1) theta) / sin(theta), so those lines may differ between checkouts
that evaluate such rows differently.

A change to any row's method moves the `methods` line, and with it the
value lines whose plans hold such a row.
"""

import argparse
import contextlib
import hashlib
import io
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402
from scipy import fft  # noqa: E402

import workloads  # noqa: E402
from turnarcs import cli, diagnostics, simulator  # noqa: E402
from turnarcs.covariance import (  # noqa: E402
    BivariateNegativeBinomial, BivariateSpectralMatern, Chentsov, GeneralizedF, NegativeBinomial,
    SequenceCovariance, SequenceMultiCovariance, SpectralMatern)
from turnarcs.degree_sampling import (  # noqa: E402
    FiniteDegrees, GeometricDegrees, OddShiftedZeta, ShiftedZeta)
from turnarcs.grids import build_grid, parse_grid  # noqa: E402
from turnarcs.simulator import (  # noqa: E402
    SimulationConfig, WaveParams, draw_wave, sample_pole, simulate, simulate_ensemble,
    single_wave_values, wave_eval_scalar, wave_rng)

SEEDS = (0, 1, 2, 2**64 + 3, 2**65 + 4)
EXTRA_SEEDS = (2**70, 2**70 + 1, 2**70 + 2)
EXTRA_CASES = {
    "circle-finite": (SequenceCovariance([0.2, 0.5, 0.3], d=1),
                      FiniteDegrees([0.25, 0.5, 0.25])),
    "chentsov-d5-oddzeta2": (Chentsov(d=5), OddShiftedZeta(2.0)),
    "bivariate-nb-zeta2": (BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6),
                           ShiftedZeta(2.0)),
    "f-d3-zeta2": (GeneralizedF(1.0, 3.5, 2.0, d=3), ShiftedZeta(2.0)),
    "bivariate-sm-zeta2": (BivariateSpectralMatern(1.0, 2.0, 1.375, 0.75, rho=-0.6),
                           ShiftedZeta(2.0)),
    "sequence-p3-finite": (SequenceMultiCovariance([np.eye(3),
                                                    [[0.5, 0.2, 0.1],
                                                     [0.2, 0.4, 0.0],
                                                     [0.1, 0.0, 0.3]],
                                                    np.diag([0.2, 0.0, 0.1])], d=2),
                           FiniteDegrees([0.2, 0.5, 0.3])),
}
# name: (model, degree law, npts, L)
METHOD_CASES = {
    "circle-40pts": (SequenceCovariance([0.2, 0.5, 0.3], d=1),
                     FiniteDegrees([0.25, 0.5, 0.25]), 40, 70),
    "nb-d4-10k": (NegativeBinomial(0.5, d=4), GeometricDegrees(0.05), 10_000, 100),
    "f-d2-zeta1.5-3pts": (GeneralizedF(1.0, 3.5, 2.0, d=2), ShiftedZeta(1.5), 3, 300),
}
METHOD_POINTS = (1, 3, 100, 128, 8192, 8193, 10_000, 29_260, 62_500, 95_200, 250_000, 600_000)
LAWS = (FiniteDegrees([0.1, 0.0, 0.6, 0.3]), GeometricDegrees(0.01), ShiftedZeta(1.1),
        ShiftedZeta(2.0), ShiftedZeta(7.0), OddShiftedZeta(1.5), OddShiftedZeta(3.7))


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def numbers(lines) -> np.ndarray:
    """Every number in some lines of text, in order."""
    number = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf"
    return np.array([float(x) for x in re.findall(number, chr(10).join(lines))])


def csv_values(body: bytes) -> np.ndarray:
    """The numbers of some CSV rows, one row per line, below the column names."""
    return np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2,
                      skiprows=0 if re.match(rb"[-+\d.]", body) else 1)


def heavy(config, npts: int) -> str:
    """' heavy=k' for d = 3: waves of the plan above the column limit."""
    if config.d != 3:
        return ""
    limit = fft.prev_fast_len(max(npts - 1, 1), real=True) // 16
    degrees = [draw_wave(config, wave_rng(config.seed, i)).degree for i in range(config.L)]
    return f" heavy={sum(k > limit for k in degrees)}"


def simulate_lines(name, config, points):
    note = heavy(config, points.shape[0])
    for threads in (None, 2):
        values = simulate(config, points, n_threads=threads).values
        yield (f"{name} seed={config.seed} threads={threads} {digest(values.tobytes())}{note}",
               values)


def workload_lines():
    for name, workload in workloads.WORKLOADS.items():
        inputs = workloads.setup(workload)
        if workload.command == "validate":
            for seed in SEEDS:
                code, body = validate_report([*workload.flags, "--seed", str(seed)])
                yield f"{name} seed={seed} exit={code} {digest(chr(10).join(body))}", numbers(body)
            continue
        for seed in SEEDS:
            config = SimulationConfig(inputs.model, inputs.degrees, L=inputs.args.L, seed=seed)
            yield from simulate_lines(name, config, inputs.grid.points)
            if workload.via_cli:
                with tempfile.TemporaryDirectory() as tmp:
                    code, body = csv_body([*workload.flags, "--seed", str(seed)], tmp)
                yield f"{name} seed={seed} csv exit={code} {digest(body)}", csv_values(body)


CSV_CASES = {
    "slice3": ("--model", "f", "--d", "3", "--alpha", "1", "--nu", "3.5", "--tau", "2",
               "--degree-dist", "zeta:2", "--L", "30", "--grid", "slice3:0.25:70x90"),
    "slice3-w=-0": ("--model", "f", "--d", "3", "--alpha", "1", "--nu", "3.5", "--tau", "2",
                    "--degree-dist", "zeta:2", "--L", "30", "--grid", "slice3:-0:33x41"),
    "section-d4": ("--model", "nb", "--d", "4", "--delta", "0.5",
                   "--degree-dist", "geometric:0.05", "--L", "30", "--grid", "section:4:70x90"),
    "section-d5-p2": ("--model", "nb", "--p", "2", "--d", "5", "--delta", "0.2,0.2,0.7",
                      "--rho", "0.6", "--degree-dist", "geometric:0.05", "--L", "30",
                      "--grid", "section:5:64x64"),
    "points-d2": ("--model", "nb", "--delta", "0.5", "--degree-dist", "geometric:0.05",
                  "--L", "30", "--grid", "points:{points}"),
    "points-d2-p2": ("--model", "nb", "--p", "2", "--delta", "0.2,0.2,0.7", "--rho", "0.6",
                     "--degree-dist", "geometric:0.05", "--L", "30", "--grid", "points:{points}"),
}


def csv_body(argv, tmp) -> tuple:
    """(exit code, the CSV rows of one `turnarcs simulate` run without the
    header lines)."""
    out = Path(tmp) / "out.csv"
    code = cli.main(["simulate", *argv, "--out", str(out)])
    rows = [line for line in out.read_bytes().splitlines(keepends=True)
            if not line.startswith(b"#")]
    out.unlink()
    return code, b"".join(rows)


def csv_lines():
    with tempfile.TemporaryDirectory() as tmp:
        v = np.random.default_rng(2024).normal(size=(5000, 3))
        points = Path(tmp) / "points.csv"
        np.savetxt(points, v / np.linalg.norm(v, axis=1)[:, None], fmt="%.17g", delimiter=",")
        for name, flags in CSV_CASES.items():
            flags = [flag.format(points=points) for flag in flags]
            for seed in SEEDS:
                code, body = csv_body([*flags, "--seed", str(seed)], tmp)
                yield f"csv {name} seed={seed} exit={code} {digest(body)}", csv_values(body)


def extra_lines():
    for name, (model, law) in EXTRA_CASES.items():
        rng = np.random.default_rng(12345)
        points = rng.normal(size=(500, model.d + 1))
        points /= np.linalg.norm(points, axis=1)[:, None]
        for seed in EXTRA_SEEDS:
            yield from simulate_lines(name, SimulationConfig(model, law, L=300, seed=seed), points)


def method_lines():
    for name, (model, law, npts, L) in METHOD_CASES.items():
        points = sample_pole(model.d, np.random.default_rng(npts), size=npts)
        for seed in EXTRA_SEEDS:
            yield from simulate_lines(name, SimulationConfig(model, law, L=L, seed=seed), points)
        config = SimulationConfig(model, law, L=1, seed=0)
        for seed in range(6):
            waves = single_wave_values(config, points, 60, np.random.default_rng(seed))
            yield f"{name} batch rng={seed} {digest(waves.tobytes())}", waves


def ensemble_lines():
    validate = SimulationConfig(NegativeBinomial(0.5, d=2), GeometricDegrees(0.05), L=100, seed=0)
    points = build_grid(parse_grid("latlon:8x16")).points
    for seed in range(3):
        values = simulate_ensemble(validate, points, 200, np.random.default_rng(seed))
        yield f"ensemble validate rng={seed} {digest(values.tobytes())}", values
    # 40 waves x 128 points x p = 2 per realization: 19 realizations a chunk
    config = SimulationConfig(BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6),
                              GeometricDegrees(0.05), L=40, seed=0)
    budget = simulator.ENSEMBLE_BUDGET
    simulator.ENSEMBLE_BUDGET = 200_000
    try:
        for seed in range(3):
            values = simulate_ensemble(config, points, 60, np.random.default_rng(seed))
            yield f"ensemble bivariate chunks=4 rng={seed} {digest(values.tobytes())}", values
    finally:
        simulator.ENSEMBLE_BUDGET = budget


def last_tile_lines():
    npts = 16_385
    for d in (2, 8):
        points = sample_pole(d, np.random.default_rng(npts), size=npts)
        for seed in EXTRA_SEEDS:
            config = SimulationConfig(NegativeBinomial(0.5, d=d), GeometricDegrees(0.05),
                                      L=40, seed=seed)
            yield from simulate_lines(f"nb-d{d}-16385pts", config, points)


def switch_lines():
    cases = {"nb-d2": (NegativeBinomial(0.5, d=2), GeometricDegrees(0.05)),
             "bivariate-nb-d2": (BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6),
                                 GeometricDegrees(0.05)),
             "f-d3-zeta2": (GeneralizedF(1.0, 3.5, 2.0, d=3), ShiftedZeta(2.0))}
    for npts in (8192, 8193):
        for name, (model, law) in cases.items():
            points = sample_pole(model.d, np.random.default_rng(npts), size=npts)
            for seed in EXTRA_SEEDS:
                config = SimulationConfig(model, law, L=70, seed=seed)
                yield from simulate_lines(f"{name}-{npts}pts", config, points)
    for name, model, L, M in (("validate", NegativeBinomial(0.5, d=2), 100, 8),
                              ("bivariate", BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6),
                               40, 4)):
        config = SimulationConfig(model, GeometricDegrees(0.05), L=L, seed=0)
        points = sample_pole(2, np.random.default_rng(9000), size=9000)
        for seed in range(3):
            values = simulate_ensemble(config, points, M, np.random.default_rng(seed))
            yield f"ensemble {name} 9000pts rng={seed} {digest(values.tobytes())}", values


def zero_weight_lines():
    model, law = Chentsov(d=3), ShiftedZeta(2.0)
    for npts in (8192, 8193):
        points = sample_pole(3, np.random.default_rng(npts), size=npts)
        for L in (2, 20):
            for seed in EXTRA_SEEDS:
                config = SimulationConfig(model, law, L=L, seed=seed)
                yield from simulate_lines(f"chentsov-d3-zeta2-L{L}-{npts}pts", config, points)
            config = SimulationConfig(model, law, L=L, seed=0)
            for seed in range(3):
                values = simulate_ensemble(config, points, 8, np.random.default_rng(seed))
                yield (f"ensemble chentsov-d3-zeta2 L={L} {npts}pts rng={seed} "
                       f"{digest(values.tobytes())}", values)


def affine_lines():
    for spec in ("section:8:64x128", "section:8:3x2731"):
        points = build_grid(parse_grid(spec)).points
        for seed in EXTRA_SEEDS:
            config = SimulationConfig(Chentsov(d=8), OddShiftedZeta(2.0), L=70, seed=seed)
            yield from simulate_lines(f"chentsov-d8-oddzeta2-{points.shape[0]}pts", config,
                                      points)


def group_lines():
    points = sample_pole(2, np.random.default_rng(20_000), size=20_000)
    for name, model in (("nb-d2", NegativeBinomial(0.5, d=2)),
                        ("bivariate-nb-d2", BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6))):
        for seed in EXTRA_SEEDS:
            config = SimulationConfig(model, GeometricDegrees(0.05), L=200, seed=seed)
            yield from simulate_lines(f"{name}-20000pts-L200", config, points)


def symmetric_lines():
    points = build_grid(parse_grid("latlon:8x16")).points
    config = SimulationConfig(NegativeBinomial(0.5, d=2), ShiftedZeta(2.0), L=100, seed=0)
    for seed in range(3):
        values = simulate_ensemble(config, points, 20, np.random.default_rng(seed))
        yield f"ensemble nb-d2-zeta2 latlon:8x16 rng={seed} {digest(values.tobytes())}", values
    points = build_grid(parse_grid("section:5:16x32")).points
    for name, model in (("nb-d5", NegativeBinomial(0.5, d=5)),
                        ("bivariate-nb-d5",
                         BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6, d=5))):
        for seed in EXTRA_SEEDS:
            config = SimulationConfig(model, GeometricDegrees(0.05), L=70, seed=seed)
            yield from simulate_lines(f"{name}-section:5:16x32", config, points)
    points = build_grid(parse_grid("latlon:6x10")).points
    for name, model in (("nb-d2", NegativeBinomial(0.5, d=2)),
                        ("bivariate-nb-d2", BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6))):
        config = SimulationConfig(model, GeometricDegrees(0.05), L=1, seed=0)
        for seed in range(6):
            waves = single_wave_values(config, points, 60, np.random.default_rng(seed))
            yield f"{name} latlon:6x10 batch rng={seed} {digest(waves.tobytes())}", waves
    angles = (np.arange(32) + 0.5) * np.pi / 32
    half = np.column_stack([np.cos(angles), np.sin(angles)])
    points = np.vstack([half, -half])
    model, law = NegativeBinomial(0.8, d=1), GeometricDegrees(0.1)
    for seed in EXTRA_SEEDS:
        yield from simulate_lines("nb-d1-circle64", SimulationConfig(model, law, L=300, seed=seed),
                                  points)
    config = SimulationConfig(model, law, L=1, seed=0)
    for seed in range(6):
        waves = single_wave_values(config, points, 60, np.random.default_rng(seed))
        yield f"nb-d1-circle64 batch rng={seed} {digest(waves.tobytes())}", waves


def cap_lines():
    config = SimulationConfig(GeneralizedF(1.0, 3.5, 2.0, d=2), ShiftedZeta(1.5), L=1, seed=0)
    rng = np.random.default_rng(32_768)
    points = sample_pole(2, rng, size=5)
    poles = sample_pole(2, rng, size=3)
    signs = (1, -1, 1)
    for degree in (32_768, 32_769):
        values = [wave_eval_scalar(WaveParams(sign, pole, degree), config, points)
                  for sign, pole in zip(signs, poles)]
        values = np.array(values)
        yield f"cap d=2 degree={degree} wave_eval {digest(values.tobytes())}", values
    degrees = np.repeat([32_768, 32_769], 3)
    plan = simulator._Plan(np.tile(signs, 2), np.tile(poles, (2, 1)), degrees, None)
    signed, _ = simulator._wave_coefficients(config, plan)
    values = simulator._wave_sums(2, degrees, points, plan.poles, signed, None, 1)
    yield f"cap d=2 degrees=32768,32769 batch {digest(values.tobytes())}", values


def method_table_lines():
    degrees = np.concatenate([np.arange(40_001),
                              [10**6, 10**9, 2**53 + 1, 2**62, 2**63 - 1]]).astype(np.int64)
    codes = np.array([simulator._profile_methods(d, degrees, npts)
                      for d in (1, 2, 3, 4, 8, 256) for npts in METHOD_POINTS], dtype=np.int64)
    yield f"methods {digest(codes.tobytes())}", codes


def law_lines():
    for law in LAWS:
        for seed in (0, 2**64 + 5):
            draws, states = [], []
            for idx in range(200):
                rng = wave_rng(seed, idx)
                draws.append(law.sample(rng))
                states.append(rng.bit_generator.state)
            yield (f"law {law.spec_string()} seed={seed} scalar {digest(draws, states)}",
                   np.array(draws))
        rng = np.random.default_rng(99)
        batch = law.sample(rng, size=5000)
        yield (f"law {law.spec_string()} batch "
               f"{digest(batch.tobytes(), rng.bit_generator.state)}", batch)
    for d in (1, 2, 3, 8, 40):
        rng = wave_rng(7, d)
        pole = sample_pole(d, rng)
        yield f"pole d={d} {digest(pole.tobytes(), rng.bit_generator.state)}", pole


VALIDATE_CASES = {
    "nb-latlon:20x40-max-pairs2000": (
        "--model", "nb", "--delta", "0.5", "--degree-dist", "geometric:0.05", "--L", "100",
        "--M", "20", "--grid", "latlon:20x40", "--max-pairs", "2000"),
    "sm-d2-M10": ("--model", "sm", "--alpha", "1", "--nu", "0.75", "--degree-dist", "zeta:2",
                  "--L", "100", "--M", "10", "--grid", "latlon:8x16"),
}
COVARIANCE_CASES = {
    "sequence-d1": SequenceCovariance([0.2, 0.5, 0.3], d=1),
    "sequence-d2": SequenceCovariance([0.1, 0.0, 0.4, 0.5], d=2),
    "sequence-p3": EXTRA_CASES["sequence-p3-finite"][0],
    "sm-d2": SpectralMatern(1.0, 0.75, d=2),
    "sm-d3": SpectralMatern(2.5, 2.0, d=3),
    "f-d2": GeneralizedF(1.0, 3.5, 2.0, d=2),
    "f-d3": GeneralizedF(1.0, 3.5, 2.0, d=3),
}


def validate_report(argv) -> tuple:
    """(exit code, the report lines of one `turnarcs validate` run without
    its wall time)."""
    report = io.StringIO()
    with contextlib.redirect_stdout(report), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["validate", *argv])
    return code, [line for line in report.getvalue().splitlines()
                  if not line.startswith("# wall-time-seconds")]


def validate_lines():
    for name, flags in VALIDATE_CASES.items():
        for seed in range(3):
            code, body = validate_report([*flags, "--seed", str(seed)])
            yield (f"validate {name} seed={seed} exit={code} {digest(chr(10).join(body))}",
                   numbers(body))


def covariance_lines():
    for name, model in COVARIANCE_CASES.items():
        for seed in range(3):
            theta = np.random.default_rng(seed).uniform(0.0, np.pi, size=50)
            for label, angles in (("scalar", theta[0]), ("array", theta)):
                values = np.asarray(model.covariance(angles), dtype=float)
                yield (f"covariance {name} {label} rng={seed} {digest(values.tobytes())}",
                       values)


def bin_lines():
    for spec in ("latlon:20x40", "latlon:10x20"):
        points = build_grid(parse_grid(spec)).points
        pairs = np.column_stack(np.triu_indices(points.shape[0]))
        for bins in (8, 16, 20):
            _, idx = diagnostics.pair_lag_bins(points, pairs, bins)
            yield f"bins {spec} bins={bins} {digest(idx.tobytes())}", idx


DIGEST = re.compile(r" [0-9a-f]{64}")


def case_file(directory: Path, line: str) -> Path:
    """DIR/<case>.npy, named by the line without its digest."""
    return directory / (re.sub(r"[^\w=.,+-]+", "_", DIGEST.sub("", line)) + ".npy")


def moved_line(directory: Path, line: str, values) -> str:
    """A moved line with the largest |difference| between its case's values
    and DIR's, relative to the RMS of DIR's."""
    reference = case_file(directory, line)
    if not reference.exists():
        return f"{line} (no saved case)"
    ref = np.load(reference)
    if ref.shape != np.shape(values):
        return f"{line} shape {ref.shape} -> {np.shape(values)}"
    diff = np.max(np.abs(values - ref), initial=0.0)
    rms = np.sqrt(np.mean(np.square(ref.astype(float))))
    return f"{line} max|diff|/rms={diff / rms if rms else diff:.3g}"


def cases():
    """(line, values) of every case, in print order."""
    for lines in (method_table_lines(), law_lines(), cap_lines(), extra_lines(), method_lines(),
                  ensemble_lines(), last_tile_lines(), switch_lines(), zero_weight_lines(),
                  affine_lines(), group_lines(), symmetric_lines(), workload_lines(), csv_lines(),
                  validate_lines(), covariance_lines(), bin_lines()):
        yield from lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split(chr(10))[0])
    modes = parser.add_mutually_exclusive_group()
    modes.add_argument("--save", type=Path, metavar="DIR",
                       help="also keep each case's values as DIR/<case>.npy")
    modes.add_argument("--compare", type=Path, metavar="DIR",
                       help="print only the lines whose digest moved from DIR's, "
                            "with the largest difference relative to DIR's RMS")
    args = parser.parse_args()
    if args.compare:
        before = set((args.compare / "digests.txt").read_text().splitlines())
        moved = 0
        for count, (line, values) in enumerate(cases(), 1):
            if line not in before:
                moved += 1
                print(moved_line(args.compare, line, values), flush=True)
        print(f"# {moved} of {count} lines moved")
        return
    if args.save:
        args.save.mkdir(parents=True, exist_ok=True)
    with open(args.save / "digests.txt", "w") if args.save else contextlib.nullcontext() as saved:
        for line, values in cases():
            print(line, flush=True)
            if saved:
                print(line, file=saved, flush=True)
                np.save(case_file(args.save, line), values)


if __name__ == "__main__":
    main()
