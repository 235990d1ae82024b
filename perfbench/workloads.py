"""The benchmark's workloads: their inputs, one timed operation each, and the
checks that decide whether the operation's output is correct.

Every workload is written as the flags of a `turnarcs` subcommand, so its
set-up (parse, grid, SimulationConfig) is the CLI's own.  Operation j of a
run with seed s simulates with config seed s * OPS_PER_SEED + j: every
operation draws a new wave plan, and the run's medians average over plans.
"""

import contextlib
import csv
import hashlib
import io
import re
from dataclasses import dataclass
from functools import cached_property
from time import perf_counter

import numpy as np
from turnarcs import cli, simulator
from turnarcs.grids import build_grid, parse_grid

import oracle
from tracing import NULL_TRACER

OPS_PER_SEED = 100_000
SAMPLE_POINTS = 64          # points re-summed by the oracle in every operation
SAMPLE_SEED = 20200330      # fixed, so the checked points do not depend on the run
WORST_SE = 6.0              # largest |estimate - model| / se a validate report may show


@dataclass(frozen=True)
class Workload:
    name: str
    command: str      # turnarcs subcommand whose flags define the inputs
    flags: tuple      # the inputs, without --seed and --out
    via_cli: bool     # the timed operation is turnarcs.cli.main, not simulate()
    calibration: tuple = ("numpy",)    # parts of the host-speed kernel (calibrate.py)


WORKLOADS = {w.name: w for w in (
    Workload("desk_nb_d2", "simulate", (
        "--model", "nb", "--d", "2", "--delta", "0.5",
        "--degree-dist", "geometric:0.01", "--L", "20", "--grid", "latlon:250x250",
    ), via_cli=False),
    Workload("zeta_d3_slice", "simulate", (
        "--model", "f", "--d", "3", "--alpha", "1", "--nu", "3.5", "--tau", "2",
        "--degree-dist", "zeta:2", "--L", "100", "--grid", "slice3:0.25:100x100",
    ), via_cli=False),
    Workload("cli_bivariate_csv", "simulate", (
        "--model", "nb", "--p", "2", "--d", "2", "--delta", "0.2,0.2,0.7", "--rho", "0.6",
        "--degree-dist", "geometric:0.01", "--L", "15", "--grid", "latlon:100x200",
    ), via_cli=True, calibration=("numpy", "python")),      # the CSV writer's row loop
    Workload("ensemble_validate", "validate", (
        "--model", "nb", "--delta", "0.5", "--degree-dist", "geometric:0.05",
        "--L", "100", "--M", "200", "--grid", "latlon:8x16",
    ), via_cli=True),
)}


@dataclass
class Inputs:
    args: object
    grid_spec: object
    grid: object
    model: object
    degrees: object


def setup(workload: Workload, tracer=NULL_TRACER) -> Inputs:
    """Parse the workload's flags, build its grid and validate its
    SimulationConfig (each operation then makes its own, with its seed)."""
    argv = [workload.command, *workload.flags, "--seed", "0"]
    if workload.command == "simulate":
        argv += ["--out", "unused.csv"]
    with tracer.span("cli.parse"):
        args = cli.build_parser().parse_args(argv)
        grid_spec = parse_grid(args.grid, args.d)
        model = cli.parse_model(args)
        degrees, _ = cli.resolve_degrees(args, model)
    with tracer.span("grids.build"):
        grid = build_grid(grid_spec)
    with tracer.span("covariance.config"):
        simulator.SimulationConfig(model, degrees, L=args.L, seed=0)
    return Inputs(args, grid_spec, grid, model, degrees)


@dataclass
class Op:
    seconds: float
    point_steps: int          # npts * sum(kappa_i + 1) of the operation
    problem: str | None       # why the output is wrong; None when correct
    digest: str               # hash of the output, for the repeat check


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def mean_degree(degrees, n_max: int = 1_000_000) -> float:
    """Mean of a light-tailed degree law, summed over its first n_max atoms."""
    n = np.arange(n_max)
    return float(np.sum(n * degrees.pmf(n)))


def sample_rows(npts: int) -> np.ndarray:
    """The rows the oracle checks: the same for every run of a workload."""
    rng = np.random.default_rng(SAMPLE_SEED)
    return np.sort(rng.choice(npts, size=min(SAMPLE_POINTS, npts), replace=False))


class Bench:
    """One workload at one run seed: timed operations and their checks."""

    def __init__(self, workload: Workload, seed: int, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.inputs = setup(workload)
        self.sample = sample_rows(self.inputs.grid.points.shape[0])

    @property
    def points(self) -> np.ndarray:
        return self.inputs.grid.points

    def op_seed(self, j: int) -> int:
        return self.seed * OPS_PER_SEED + j

    def config(self, j: int):
        """A fresh config for operation j (empty factor cache, as in the CLI)."""
        inputs = self.inputs
        return simulator.SimulationConfig(
            inputs.model, inputs.degrees, L=inputs.args.L, seed=self.op_seed(j))

    def run_op(self, j: int) -> Op:
        if self.workload.command == "validate":
            return self._validate_op(j)
        if self.workload.via_cli:
            return self._cli_simulate_op(j)
        return self._simulate_op(j)

    def _checked(self, config, values, seconds, digest, problem=None) -> Op:
        plan = oracle.replay_plan(config)
        error = oracle.field_error(config, plan, self.points, values, self.sample)
        if problem is None and not error <= oracle.TOLERANCE:
            problem = f"oracle error {error:.3g} x RMS exceeds {oracle.TOLERANCE:g}"
        return Op(seconds, oracle.point_steps(plan, self.points.shape[0]), problem, digest)

    def _simulate_op(self, j: int) -> Op:
        config = self.config(j)
        started = perf_counter()
        realization = simulator.simulate(config, self.points)
        seconds = perf_counter() - started
        return self._checked(config, realization.values, seconds,
                             _digest(realization.values.tobytes()))

    def _cli_simulate_op(self, j: int) -> Op:
        out = self.workdir / "op.csv"
        argv = ["simulate", *self.workload.flags, "--seed", str(self.op_seed(j)),
                "--out", str(out)]
        started = perf_counter()
        code = cli.main(argv)
        seconds = perf_counter() - started
        if code != 0:
            return Op(seconds, 0, f"turnarcs simulate exited with {code}", "")
        _, _, table = cli.read_realization_csv(out)
        config = self.config(j)
        values = simulator.simulate(config, self.points).values
        coords = self.inputs.grid.coords
        ncoord = coords.shape[1]
        problem = None
        if (table.shape != (coords.shape[0], ncoord + values.shape[1])
                or not np.array_equal(table[:, :ncoord], coords)
                or not np.array_equal(table[:, ncoord:], values)):
            problem = "CSV values differ from library simulate"
        return self._checked(config, values, seconds, _digest(out.read_bytes()), problem)

    @cached_property
    def ensemble_point_steps(self) -> int:
        """Expected recurrence work of one validate run: the M * L waves are
        drawn inside simulate_ensemble, so the law's mean stands in for their
        degrees (M * L = 20000 draws put the realized sum within ~1%)."""
        args = self.inputs.args
        waves = args.M * args.L
        return round(self.points.shape[0] * waves * (mean_degree(self.inputs.degrees) + 1))

    def _validate_op(self, j: int) -> Op:
        argv = ["validate", *self.workload.flags, "--seed", str(self.op_seed(j))]
        report, errors = io.StringIO(), io.StringIO()
        started = perf_counter()
        with contextlib.redirect_stdout(report), contextlib.redirect_stderr(errors):
            code = cli.main(argv)
        seconds = perf_counter() - started
        lines = report.getvalue().splitlines()
        body = "\n".join(line for line in lines if not line.startswith("# wall-time-seconds"))
        return Op(seconds, self.ensemble_point_steps, validation_problem(code, lines),
                  _digest(body.encode()))


def validation_problem(code: int, lines: list[str]) -> str | None:
    """Why a validate report is wrong, or None.

    Every bin/component row of the report is checked: its estimate, model
    value and standard error must be finite and the estimate within WORST_SE
    standard errors of the model.  The command's own 4-standard-error band
    over 20 lag bins flags about 0.3% of correct runs at this size (4 of 1200
    seeds when the workload was sized), so a flagged report is accepted when
    its exit code matches its failure count and every row passes here.
    """
    match = re.fullmatch(r"# worst \|estimate-theory\|/se = (\S+); failures = (\d+)",
                         lines[-1] if lines else "")
    if match is None:
        return f"turnarcs validate exited with {code} without a report"
    failures = int(match.group(2))
    if code != (0 if failures == 0 else 2):
        return f"turnarcs validate exited with {code} but reported {failures} failures"
    cells = 0
    for row in csv.DictReader(line for line in lines if not line.startswith("#")):
        if row["ok"] == "empty":
            continue
        estimate, theory, se = (float(row[key]) for key in ("estimate", "theoretical", "se"))
        if not all(np.isfinite((estimate, theory, se))):
            return f"lag bin {row['bin']} has a non-finite estimate, model value or error"
        if abs(estimate - theory) > WORST_SE * se:
            return (f"lag bin {row['bin']} lies {abs(estimate - theory):g} from the model, "
                    f"beyond {WORST_SE:g} standard errors of {se:g}")
        cells += 1
    if cells == 0:
        return "the validate report checks no lag bin"
    return None
