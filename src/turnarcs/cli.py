"""Command-line front end.

Subcommands: simulate (write a realization as CSV), coeffs (dump Schoenberg
coefficients), validate (empirical-covariance acceptance experiment), mu3
(wave third moment and the normal-approximation bound), recommend (degree-law
selection).  Exit codes: 0 ok, 1 usage or parameter error, 2 statistical
validation failure, 3 I/O error.
"""

import argparse
import contextlib
import functools
import os
import sys
import time

import numpy as np

from .covariance import (
    BivariateNegativeBinomial,
    BivariateSpectralMatern,
    Chentsov,
    Exponential,
    GeneralizedF,
    ModelError,
    NegativeBinomial,
    SequenceCovariance,
    SpectralMatern,
)
from .degree_sampling import (
    FiniteDegrees,
    GeometricDegrees,
    OddShiftedZeta,
    ShiftedZeta,
    recommend_distribution,
)
from .diagnostics import berry_esseen_report, empirical_covariance, pair_lag_bins
from .grids import GridError, build_grid, parse_grid
from .simulator import (
    SimulationConfig,
    SimulationError,
    simulate,
    simulate_ensemble,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_IO = 3
CSV_CHUNK_ROWS = 4096   # rows per %-format call of the CSV writer (caps its text near 1 MB)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _at_least(minimum: int):
    """argparse type: an integer no smaller than minimum."""
    def integer(text: str) -> int:
        if int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {text}")
        return int(text)
    return integer


def _float_list(text: str):
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from exc


def _one(values, flag):
    if values is None:
        raise UsageError(f"{flag} is required for this model")
    if len(values) != 1:
        raise UsageError(f"{flag} takes one value here, got {len(values)}")
    return values[0]


def _three(values, flag):
    if values is None:
        raise UsageError(f"{flag} is required for this model")
    if len(values) != 3:
        raise UsageError(f"{flag} needs three values (11, 12, 22), got {len(values)}")
    return values


def parse_model(args):
    """Build the covariance model from CLI flags; its constructor checks it."""
    family, d, p = args.model, args.d, args.p
    if p not in (1, 2):
        raise UsageError("p must be 1 or 2 (matrix models can be supplied via the library)")
    if family == "nb":
        if p == 1:
            model = NegativeBinomial(_one(args.delta, "--delta"), d=d)
        else:
            d11, d12, d22 = _three(args.delta, "--delta")
            if args.rho is None:
                raise UsageError("--rho is required for bivariate models")
            model = BivariateNegativeBinomial(d11, d12, d22, rho=args.rho, d=d)
    elif family == "sm":
        alpha = _one(args.alpha, "--alpha")
        if p == 1:
            model = SpectralMatern(alpha, _one(args.nu, "--nu"), d=d)
        else:
            n11, n12, n22 = _three(args.nu, "--nu")
            if args.rho is None:
                raise UsageError("--rho is required for bivariate models")
            model = BivariateSpectralMatern(
                alpha, n11, n12, n22, rho=args.rho, d=d,
                allow_unverified_cross=args.allow_unverified_cross,
            )
    elif family == "f":
        if p != 1:
            raise UsageError("the generalized-F model is univariate")
        model = GeneralizedF(
            _one(args.alpha, "--alpha"), _one(args.nu, "--nu"),
            _one(args.tau, "--tau"), d=d,
        )
    elif family == "chentsov":
        if p != 1:
            raise UsageError("the chentsov model is univariate")
        model = Chentsov(d=d)
    elif family == "exponential":
        if p != 1:
            raise UsageError("the exponential model is univariate")
        model = Exponential(_one(args.nu, "--nu"), d=d)
    elif family == "sequence":
        if p != 1:
            raise UsageError("sequence models are univariate on the CLI")
        if args.coeffs is None:
            raise UsageError("--coeffs is required for sequence models")
        model = SequenceCovariance(args.coeffs, d=d)
    else:
        raise UsageError(f"unknown model family {family!r}")
    return model


def parse_degrees(text: str):
    kind, _, rest = text.partition(":")
    try:
        if kind == "geometric":
            return GeometricDegrees(float(rest))
        if kind == "zeta":
            return ShiftedZeta(float(rest))
        if kind == "oddzeta":
            return OddShiftedZeta(float(rest))
        if kind == "finite":
            return FiniteDegrees(_float_list(rest))
    except (ValueError, UsageError) as exc:
        raise UsageError(f"malformed degree law {text!r}: {exc}") from exc
    raise UsageError(
        f"unknown degree law {text!r} (expected geometric:P, zeta:T, oddzeta:T, finite:P0,P1,...)"
    )


def resolve_degrees(args, model):
    """Explicit --degree-dist, or (by default) automatic selection from the
    model's coefficient decay; returns the law plus provenance header lines."""
    if args.degree_dist:
        return parse_degrees(args.degree_dist), []
    rec = recommend_distribution(model)
    lines = [f"# auto-degree: case={rec.case}"]
    if rec.interval is not None:
        lines.append(
            f"# auto-degree: theta-prime-interval=({rec.interval[0]:g}, {rec.interval[1]:g})"
        )
    if rec.warning:
        lines.append(f"# auto-degree: warning={rec.warning}")
    return rec.distribution, lines


def write_realization(stream, grid, grid_string, realization, extra_lines=()):
    md = realization.metadata
    stream.write(f"# model={md['model']}\n")
    stream.write("".join(f"# {key}={md[key]}\n" for key in ("d", "p", "L", "seed")))
    stream.write(f"# degrees={md['degrees']}\n")
    stream.write(f"# grid={grid_string}\n")
    stream.write(f"# profile_error_bound={_fmt(md['profile_error_bound'])}\n")
    stream.write(f"# degree_sum={md['degree_sum']}\n")
    stream.write(f"# degree_max={md['degree_max']}\n")
    counts = ",".join(f"{name}:{count}" for name, count in md["profile_methods"].items())
    stream.write(f"# profile_methods={counts}\n")
    for line in extra_lines:
        stream.write(line + "\n")
    p = realization.values.shape[1]
    names = list(grid.coord_names) + [f"z{i + 1}" for i in range(p)]
    stream.write(",".join(names) + "\n")
    # the bytes of np.savetxt(fmt="%.17g", delimiter=","), one format per
    # chunk; a coordinate column that repeats its values is written as the
    # '%.17g' text of each distinct value, formatted once and reused by %s
    texts = [_distinct_text(column) for column in grid.coords.T] + [None] * p
    row_fmt = ",".join("%.17g" if text is None else "%s" for text in texts) + "\n"
    reused = any(text is not None for text in texts)
    for s in range(0, grid.coords.shape[0], CSV_CHUNK_ROWS):
        rows = slice(s, s + CSV_CHUNK_ROWS)
        chunk = np.column_stack([grid.coords[rows], realization.values[rows]])
        cells = chunk
        if reused:
            cells = np.empty(chunk.shape, dtype=object)
            for j, text in enumerate(texts):
                if text is None:
                    cells[:, j] = chunk[:, j]
                else:
                    distinct, strings = text
                    cells[:, j] = strings[np.searchsorted(distinct, chunk[:, j].view(np.int64))]
        stream.write((row_fmt * chunk.shape[0]) % tuple(cells.ravel().tolist()))


def _distinct_values(bits):
    """The distinct entries of an int array, sorted."""
    bits = np.sort(bits)
    return bits[np.concatenate(([True], bits[1:] != bits[:-1]))]


def _distinct_text(column):
    """(distinct bit patterns, sorted; the '%.17g' text of each) for a column
    whose first CSV_CHUNK_ROWS rows hold each value at least twice on average,
    else None.  Values are keyed by their bits, so 0.0 and -0.0 keep their own
    text.  Deciding from the first chunk keeps the test at one small sort: on
    a column with no repeats, such as a point list's, sorting the whole column
    cost about 2% of its write at 250k rows."""
    bits = column.view(np.int64)
    head = bits[:CSV_CHUNK_ROWS]
    if 2 * _distinct_values(head).size > head.size:
        return None
    distinct = _distinct_values(bits)
    strings = np.array(["%.17g" % v for v in distinct.view(np.float64).tolist()], dtype=object)
    return distinct, strings


def read_realization_csv(path):
    """Read back a simulate CSV: (header dict, column names, data array)."""
    header = {}
    names = None
    rows = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    header[key.strip()] = value.strip()
                continue
            if names is None:
                names = line.split(",")
                continue
            rows.append([float(v) for v in line.split(",")])
    return header, names, np.array(rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _output_checked(path):
    """Open path for appending and close it again before the run, so that an
    unwritable output fails (exit 3) before any wave is evaluated; neither
    step changes the bytes of an existing file.  A file this check creates is
    removed if the subcommand then fails.  No check when path is None."""
    created = False
    if path is not None:
        try:
            open(path, "x").close()
            created = True
        except FileExistsError:
            open(path, "a").close()
    try:
        yield
    except BaseException:
        if created:
            os.remove(path)
        raise


def cmd_simulate(args) -> int:
    grid_spec = parse_grid(args.grid, args.d)
    grid = build_grid(grid_spec)
    model = parse_model(args)
    if grid.d != model.d:
        raise UsageError(f"grid is on the {grid.d}-sphere but the model has d={model.d}")
    degrees, extra = resolve_degrees(args, model)
    config = SimulationConfig(model, degrees, L=args.L, seed=args.seed)
    realization = simulate(config, grid.points)
    with open(args.out, "w") as stream:
        write_realization(stream, grid, grid_spec.describe(), realization, extra)
    return EXIT_OK


def cmd_coeffs(args) -> int:
    model = parse_model(args)
    if model.p != 1:
        raise UsageError("coefficient dumps are defined for univariate models")
    table = model.coeff_table(args.n_max)
    lines = ["n,b_n"] + [f"{n},{_fmt(b)}" for n, b in enumerate(table)]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as stream:
            stream.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _theory_by_bin(model, p, lags, idx, nbins):
    """Per-bin mean of the model covariance over the actual pair lags, which
    is the unbiased target for the binned estimates; the model is evaluated
    once, over the lags of every pair."""
    theory = np.full((nbins, p, p), np.nan)
    K = model.covariance(lags).reshape(p, p, -1)
    for b in range(nbins):
        sel = idx == b
        if np.any(sel):  # compress copies contiguously: summed as a per-bin call would be
            theory[b] = np.compress(sel, K, axis=-1).mean(axis=-1)
    return theory


def _pair_indices(npts: int, max_pairs: int, seed: int) -> np.ndarray:
    """The point pairs i <= j that validate compares, in row-major order: all
    of them, or max_pairs drawn as flat upper-triangle indices and mapped back
    through the row starts i npts - i(i-1)/2, with no array of all pairs."""
    total = npts * (npts + 1) // 2
    flat = (np.sort(np.random.default_rng(seed).choice(total, size=max_pairs, replace=False))
            if total > max_pairs else np.arange(total))
    rows = np.arange(npts)
    starts = rows * npts - rows * (rows - 1) // 2
    i = np.searchsorted(starts, flat, side="right") - 1
    return np.column_stack([i, i + flat - starts[i]])


def cmd_validate(args) -> int:
    grid_spec = parse_grid(args.grid, args.d)
    grid = build_grid(grid_spec)
    model = parse_model(args)
    if grid.d != model.d:
        raise UsageError(f"grid is on the {grid.d}-sphere but the model has d={model.d}")
    degrees, _ = resolve_degrees(args, model)
    config = SimulationConfig(model, degrees, L=args.L, seed=args.seed)
    points = grid.points
    pairs = _pair_indices(points.shape[0], args.max_pairs, args.seed)
    p = config.p
    theory = _theory_by_bin(model, p, *pair_lag_bins(points, pairs, args.bins), args.bins)

    started = time.perf_counter()
    values = simulate_ensemble(config, points, args.M, np.random.default_rng(args.seed))
    est = empirical_covariance(values, pairs, args.bins, points)
    elapsed = time.perf_counter() - started

    lines = [
        f"# validation report: model={model.describe()} degrees={degrees.spec_string()}",
        f"# L={args.L} M={args.M} grid={grid_spec.describe()} seed={args.seed}",
        f"# wall-time-seconds={elapsed:.3f}",
        "bin,center,count,i,j,estimate,theoretical,se,ok",
    ]
    worst = 0.0
    failures = 0
    for b in range(args.bins):
        if est.counts[b] == 0:
            lines.append(f"{b},{_fmt(est.bin_centers[b])},0,,,,,,empty")
            continue
        for i in range(p):
            for j in range(i, p):
                diff = abs(est.estimate[b, i, j] - theory[b, i, j])
                tol = 4.0 * est.se[b, i, j] + 1e-12
                ok = diff <= tol
                failures += 0 if ok else 1
                if est.se[b, i, j] > 0:
                    worst = max(worst, diff / est.se[b, i, j])
                lines.append(
                    f"{b},{_fmt(est.bin_centers[b])},{est.counts[b]},{i + 1},{j + 1},"
                    f"{_fmt(est.estimate[b, i, j])},{_fmt(theory[b, i, j])},"
                    f"{_fmt(est.se[b, i, j])},{'yes' if ok else 'NO'}"
                )
    lines.append(f"# worst |estimate-theory|/se = {worst:.3f}; failures = {failures}")
    report = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as stream:
            stream.write(report)
    sys.stdout.write(report)
    if failures:
        sys.stderr.write(
            f"validation failed: {failures} bin/component cells beyond 4 standard errors\n"
        )
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_mu3(args) -> int:
    model = parse_model(args)
    degrees, _ = resolve_degrees(args, model)
    components = [model] if model.p == 1 else [
        model.component(i) for i in range(model.p)
    ]
    for i, spec in enumerate(components):
        report = berry_esseen_report(spec, degrees, args.L, n_max=args.n_max)
        prefix = "" if len(components) == 1 else f"component {i + 1}: "
        if not report.mu3.finite:
            sys.stdout.write(prefix + "mu3 = infinite (the series diverges for this degree law)\n")
            continue
        sys.stdout.write(
            prefix
            + f"mu3 = {report.mu3.value!r} (truncated at degree {report.mu3.n_max}, "
            f"tail bound {report.mu3.relative_tail:.3g} relative)\n"
        )
        sys.stdout.write(prefix + f"sigma = {report.sigma!r}\n")
        sys.stdout.write(prefix + f"L = {report.L}\n")
        bound = "not established" if np.isinf(report.bound) else repr(report.bound)
        sys.stdout.write(prefix + f"ks-bound = {bound}\n")
    return EXIT_OK


def cmd_recommend(args) -> int:
    model = parse_model(args)
    rec = recommend_distribution(model)
    sys.stdout.write(f"case: {rec.case}\n")
    if rec.interval is not None:
        lo, hi = rec.interval
        sys.stdout.write(f"theta-prime-interval: ({lo:g}, {hi:g})\n")
        if hi <= lo:
            sys.stdout.write("theta-prime-interval-empty: yes\n")
    sys.stdout.write(f"distribution: {rec.distribution.spec_string()}\n")
    if rec.warning:
        sys.stdout.write(f"warning: {rec.warning}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_model_flags(sub):
    sub.add_argument("--model", required=True,
                     choices=["nb", "sm", "f", "chentsov", "exponential", "sequence"])
    sub.add_argument("--d", type=int, default=2, help="sphere dimension")
    sub.add_argument("--p", type=int, default=1, help="number of components (1 or 2)")
    sub.add_argument("--delta", type=_float_list, default=None,
                     help="nb parameter; three comma-separated values when p=2")
    sub.add_argument("--alpha", type=_float_list, default=None)
    sub.add_argument("--nu", type=_float_list, default=None,
                     help="sm/exponential/f parameter; three values for sm with p=2")
    sub.add_argument("--tau", type=_float_list, default=None)
    sub.add_argument("--rho", type=float, default=None, help="cross-correlation (p=2)")
    sub.add_argument("--coeffs", type=_float_list, default=None,
                     help="explicit coefficient sequence for --model sequence")
    sub.add_argument("--allow-unverified-cross", action="store_true",
                     help="waive the sufficient cross-parameter condition for sm p=2")


def _add_degree_flags(sub):
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--degree-dist", default=None,
                       help="geometric:P | zeta:T | oddzeta:T | finite:P0,P1,...")
    group.add_argument("--auto-degree", action="store_true",
                       help="select the degree law from the model's coefficient "
                            "decay (also the default when --degree-dist is absent)")


@functools.cache
def build_parser() -> _Parser:
    """The turnarcs parser, built once per process: each parse_args call
    returns a fresh namespace, and no action keeps state between calls."""
    parser = _Parser(prog="turnarcs",
                     description="Isotropic random fields on the d-sphere by random waves")
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="write one realization as CSV")
    _add_model_flags(sim)
    _add_degree_flags(sim)
    sim.add_argument("--L", type=_at_least(1), default=1500, help="number of waves")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--grid", required=True,
                     help="latlon:NCxNL | slice3:W:NCxNL | section:D:NCxNL | points:FILE")
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    coeffs = commands.add_parser("coeffs", help="dump Schoenberg coefficients as CSV")
    _add_model_flags(coeffs)
    coeffs.add_argument("--n-max", type=_at_least(0), required=True)
    coeffs.add_argument("--out", default=None)
    coeffs.set_defaults(func=cmd_coeffs)

    val = commands.add_parser(
        "validate",
        help="empirical covariance vs the model, binned by lag",
        description="Simulates M independent realizations and compares binned "
                    "lag products against the model within 4 standard errors. "
                    "Pick M, L and the degree law so that the dominant low "
                    "degrees appear in most realizations; otherwise the "
                    "estimator is too skewed for the 4-SE band at small M.",
    )
    _add_model_flags(val)
    _add_degree_flags(val)
    val.add_argument("--L", type=_at_least(1), default=100)
    val.add_argument("--M", type=_at_least(2), default=200, help="independent realizations")
    val.add_argument("--grid", default="latlon:8x16")
    val.add_argument("--bins", type=_at_least(1), default=20)
    val.add_argument("--max-pairs", type=_at_least(1), default=20_000)
    val.add_argument("--seed", type=_at_least(0), default=0)
    val.add_argument("--out", default=None, help="also write the report here")
    val.set_defaults(func=cmd_validate)

    mu3 = commands.add_parser("mu3", help="wave third moment and the KS bound")
    _add_model_flags(mu3)
    _add_degree_flags(mu3)
    mu3.add_argument("--L", type=_at_least(1), default=1500)
    mu3.add_argument("--n-max", type=_at_least(0), default=None)
    mu3.set_defaults(func=cmd_mu3)

    rec = commands.add_parser("recommend", help="degree-law selection for a model")
    _add_model_flags(rec)
    rec.set_defaults(func=cmd_recommend)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with _output_checked(getattr(args, "out", None)):
            return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"turnarcs: usage error: {exc}\n")
        return EXIT_USAGE
    except (ModelError, GridError, SimulationError) as exc:
        sys.stderr.write(f"turnarcs: {exc}\n")
        return EXIT_USAGE
    except ValueError as exc:
        sys.stderr.write(f"turnarcs: invalid parameter: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"turnarcs: i/o error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
