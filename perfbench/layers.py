"""Per-layer metrics from a traced replay of one operation.

Layers are the package's modules.  For the simulate workloads each traced
operation replays simulate's pipeline from public calls on the operation's
own inputs, one span per call (draw_wave, check_points, projection, log_pmf,
log_schoenberg_coeff or the Schoenberg factor, the Gegenbauer recurrence,
accumulation), then calls wave_eval_scalar / wave_eval_vector on the same
wave; around that it times set-up, simulate with one and two threads and,
where the operation writes one, the CSV.  For the validate workload the spans
are set-up, simulate_ensemble and empirical_covariance.  A layer the
operation does not call reports 0; so does one that runs only inside
simulate_ensemble, where public calls cannot separate it.
"""

import tracemalloc
from statistics import median
from time import perf_counter

import numpy as np
from turnarcs import cli, covariance, diagnostics, simulator
from turnarcs.gegenbauer import gegenbauer_eval_weighted

import oracle
import workloads
from tracing import NULL_TRACER

# simulate's per-wave work, replayed; their sum against simulate_s is the replay gap
PIPELINE = ("simulator.check_points", "simulator.draw_wave", "simulator.project",
            "degree_sampling.log_pmf", "covariance.log_coeff", "covariance.factor",
            "gegenbauer.recurrence", "simulator.accumulate")
# the parts of the pipeline that wave_eval_* performs itself
WAVE_EVAL_PARTS = ("simulator.check_points", "simulator.project", "degree_sampling.log_pmf",
                   "covariance.log_coeff", "covariance.factor", "gegenbauer.recurrence")
# set-up as the CLI does it: parse, grid, SimulationConfig
SETUP = ("cli.parse", "grids.build", "covariance.config")
FLOPS_PER_POINT_STEP = 4      # multiply, two scalings, subtract
BYTES_PER_POINT_STEP = 80     # ten float64 reads/writes over the four ufunc passes

UNITS = {
    "gegenbauer.recurrence_s": "s", "gegenbauer.ns_per_point_step": "ns",
    "gegenbauer.flops": "flop", "gegenbauer.bytes_computed": "B",
    "simulator.waves": "count", "simulator.degree_sum": "count",
    "simulator.degree_max": "count", "simulator.point_steps": "count",
    "simulator.draw_wave_s": "s", "simulator.check_points_s": "s", "simulator.project_s": "s",
    "simulator.wave_eval_s": "s", "simulator.wave_self_s": "s", "simulator.accumulate_s": "s",
    "simulator.simulate_s": "s", "simulator.threads2_speedup": "x",
    "simulator.ensemble_s": "s", "simulator.ensemble_peak_mb": "MB",
    "covariance.config_s": "s", "covariance.log_coeff_s": "s", "covariance.factor_s": "s",
    "covariance.factor_degrees": "count",
    "degree_sampling.sample_s": "s", "degree_sampling.log_pmf_s": "s",
    "grids.build_s": "s", "grids.points": "count",
    "cli.import_s": "s", "cli.parse_s": "s", "cli.write_s": "s", "cli.bytes_written": "B",
    "cli.write_mb_per_s": "MB/s",
    "diagnostics.empirical_cov_s": "s", "diagnostics.pairs": "count",
    "diagnostics.berry_esseen_s": "s",
    "trace.replay_gap_frac": "fraction", "trace.overhead_s": "s",
}


def _recurrence(lam, degree, t, weight):
    """gegenbauer_eval_weighted in simulate's point blocks."""
    out = np.empty_like(t)
    block = simulator.POINT_BLOCK
    for s in range(0, t.size, block):
        out[s:s + block] = gegenbauer_eval_weighted(lam, degree, t[s:s + block], weight)
    return out


def _wave_eval(tracer, wave, config, points):
    with tracer.span("simulator.wave_eval"):
        if config.p == 1:
            simulator.wave_eval_scalar(wave, config, points)
        else:
            simulator.wave_eval_vector(wave, config, points)


def replay(tracer, config, points):
    """simulate(config, points) rebuilt from public calls; returns the wave plan
    and the number of degrees whose Schoenberg matrix was factored."""
    span = tracer.span
    d, p, L = config.d, config.p, config.L
    lam = 0.5 * (d - 1)
    with span("simulator.check_points"):
        points = simulator.check_points(points, d)
    total = np.zeros((points.shape[0], p))
    factors, plan = {}, []
    for i in range(L):
        with span("simulator.wave"):
            with span("simulator.draw_wave"):
                wave = simulator.draw_wave(config, simulator.wave_rng(config.seed, i))
            if i % 2:   # alternate which side runs first, so cache warm-up favours neither
                _wave_eval(tracer, wave, config, points)
            k = wave.degree
            with span("simulator.check_points"):
                checked = simulator.check_points(points, d)
            with span("simulator.project"):
                t = checked @ wave.pole
                np.clip(t, -1.0, 1.0, out=t)
            with span("degree_sampling.log_pmf"):
                config.degrees.log_pmf(k)
            if p == 1:
                with span("covariance.log_coeff"):
                    config.model.log_schoenberg_coeff(k)
            elif k not in factors:
                with span("covariance.log_coeff"):
                    matrix = config.model.schoenberg_matrix(k)
                with span("covariance.factor"):
                    factors[k] = covariance.factor_schoenberg_matrix(matrix, degree=k).matrix
            weight = wave.epsilon * oracle.wave_weight(config, k)
            with span("gegenbauer.recurrence"):
                profile = _recurrence(lam, k, t, weight)
            values = (profile[:, None] if p == 1
                      else np.outer(profile, factors[k][:, wave.component]))
            with span("simulator.accumulate"):
                if not np.all(np.isfinite(values)):
                    raise simulator.SimulationError(f"non-finite wave values at wave index {i}")
                total += values
            if not i % 2:
                _wave_eval(tracer, wave, config, points)
        plan.append(wave)
    with span("simulator.accumulate"):
        total *= 1.0 / np.sqrt(L)
    return plan, len(factors)


def _peak_mb(call) -> float:
    """Peak of numpy/Python allocations during call(), in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _traced_simulate(bench, tracer, j: int) -> dict:
    span = tracer.span
    config = bench.config(j)      # each timed call below gets a fresh config (cold factor cache)
    npts = bench.points.shape[0]
    with span("simulator.simulate"):
        realization = simulator.simulate(bench.config(j), bench.points)
    with span("simulator.simulate_threads2"):
        simulator.simulate(bench.config(j), bench.points, n_threads=2)
    with span("replay"):
        plan, factored = replay(tracer, bench.config(j), bench.points)
    started = perf_counter()
    replay(NULL_TRACER, bench.config(j), bench.points)
    untraced_s = perf_counter() - started
    for i in range(config.L):
        with span("degree_sampling.sample"):
            config.degrees.sample(simulator.wave_rng(config.seed, i))
    written = 0
    if bench.workload.via_cli:    # the operation writes the realization as CSV
        path = bench.workdir / "trace.csv"
        with span("cli.write"), open(path, "w") as stream:
            cli.write_realization(stream, bench.inputs.grid, bench.inputs.grid_spec.describe(),
                                  realization)
        written = path.stat().st_size

    tot = tracer.totals(j)
    rep = tracer.totals(j, within="replay")
    wave = tracer.totals(j, within="simulator.wave")
    degrees = [w.degree for w in plan]
    steps = oracle.point_steps(plan, npts)
    simulate_s = tot["simulator.simulate"]
    return {
        "gegenbauer.recurrence_s": rep["gegenbauer.recurrence"],
        "gegenbauer.ns_per_point_step": rep["gegenbauer.recurrence"] / steps * 1e9,
        "gegenbauer.flops": FLOPS_PER_POINT_STEP * steps,
        "gegenbauer.bytes_computed": BYTES_PER_POINT_STEP * steps,
        "simulator.waves": config.L,
        "simulator.degree_sum": sum(degrees),
        "simulator.degree_max": max(degrees),
        "simulator.point_steps": steps,
        "simulator.draw_wave_s": rep["simulator.draw_wave"],
        "simulator.check_points_s": rep["simulator.check_points"],
        "simulator.project_s": rep["simulator.project"],
        "simulator.wave_eval_s": rep["simulator.wave_eval"],
        "simulator.wave_self_s": rep["simulator.wave_eval"] - sum(
            wave[name] for name in WAVE_EVAL_PARTS),
        "simulator.accumulate_s": rep["simulator.accumulate"],
        "simulator.simulate_s": simulate_s,
        "simulator.threads2_speedup": simulate_s / tot["simulator.simulate_threads2"],
        "covariance.log_coeff_s": rep["covariance.log_coeff"],
        "covariance.factor_s": rep["covariance.factor"],
        "covariance.factor_degrees": factored,
        "degree_sampling.sample_s": tot["degree_sampling.sample"],
        "degree_sampling.log_pmf_s": rep["degree_sampling.log_pmf"],
        "cli.write_s": tot["cli.write"],
        "cli.bytes_written": written,
        "cli.write_mb_per_s": written / 1e6 / tot["cli.write"] if written else 0.0,
        "trace.replay_gap_frac": 1.0 - sum(rep[name] for name in PIPELINE) / simulate_s,
        "trace.overhead_s": tot["replay"] - untraced_s,
    }


def _validate_calls(bench, tracer, j: int):
    """cmd_validate's ensemble and covariance calls for operation j."""
    args = bench.inputs.args
    config, points = bench.config(j), bench.points
    npts = points.shape[0]
    pairs = np.array([(i, k) for i in range(npts) for k in range(i, npts)])
    if pairs.shape[0] > args.max_pairs:
        keep = np.random.default_rng(config.seed).choice(
            pairs.shape[0], size=args.max_pairs, replace=False)
        pairs = pairs[np.sort(keep)]

    def ensemble_call():
        return simulator.simulate_ensemble(
            config, points, args.M, np.random.default_rng(config.seed))

    with tracer.span("simulator.ensemble"):
        ensemble = ensemble_call()
    with tracer.span("diagnostics.empirical_cov"):
        diagnostics.empirical_covariance(ensemble, pairs, bins=args.bins, points=points)
    return pairs, ensemble_call


def _traced_validate(bench, tracer, j: int, op, first: bool) -> dict:
    args = bench.inputs.args
    with tracer.span("replay"):
        pairs, ensemble_call = _validate_calls(bench, tracer, j)
    started = perf_counter()
    _validate_calls(bench, NULL_TRACER, j)
    untraced_s = perf_counter() - started
    tot = tracer.totals(j)
    traced = tot["simulator.ensemble"] + tot["diagnostics.empirical_cov"]
    out = {
        "simulator.waves": args.M * args.L,
        "simulator.ensemble_s": tot["simulator.ensemble"],
        "diagnostics.empirical_cov_s": tot["diagnostics.empirical_cov"],
        "diagnostics.pairs": pairs.shape[0],
        # share of the whole validate command that set-up and the two calls leave out
        "trace.replay_gap_frac": 1.0 - (traced + sum(tot[name] for name in SETUP)) / op.seconds,
        "trace.overhead_s": tot["replay"] - untraced_s,
    }
    if first:
        out["simulator.ensemble_peak_mb"] = _peak_mb(ensemble_call)
    return out


def traced_op(bench, tracer, j: int, op, first: bool) -> dict:
    """Replay operation j (whose untraced result is op) with spans; returns
    its per-layer values, the once-per-run ones only when first is true.
    Every metric starts at 0, the value of a layer the operation does not call."""
    out = dict.fromkeys(UNITS, 0.0)
    del out["cli.import_s"]       # measured by the set-up probes
    inputs = workloads.setup(bench.workload, tracer)
    tot = tracer.totals(j)
    out.update({
        "covariance.config_s": tot["covariance.config"],
        "grids.build_s": tot["grids.build"],
        "grids.points": inputs.grid.points.shape[0],
        "cli.parse_s": tot["cli.parse"],
    })
    if bench.workload.command == "validate":
        out.update(_traced_validate(bench, tracer, j, op, first))
    else:
        out.update(_traced_simulate(bench, tracer, j))
    if not first:
        for name in ("simulator.ensemble_peak_mb", "diagnostics.berry_esseen_s"):
            del out[name]
        return out
    config = bench.config(j)
    spec = inputs.model if config.p == 1 else inputs.model.component(0)
    with tracer.span("diagnostics.berry_esseen"):
        diagnostics.berry_esseen_report(spec, inputs.degrees, config.L)
    out["diagnostics.berry_esseen_s"] = tracer.totals(j)["diagnostics.berry_esseen"]
    return out


def summarize(samples: list[dict], import_s: float) -> dict:
    """Median over traced operations of every per-layer value, with units."""
    values = {"cli.import_s": [import_s]}
    for sample in samples:
        for name, value in sample.items():
            values.setdefault(name, []).append(value)
    missing = set(UNITS) - set(values)
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {sorted(missing)}")
    return {name: {"value": median(values[name]), "unit": UNITS[name]} for name in UNITS}
