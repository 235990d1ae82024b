"""turnarcs benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload desk_nb_d2 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 times end-to-end operations with
tracing off; --trace 1 replays each operation from public calls with a span
around every layer and reports the per-layer metrics.  Load is one
closed-loop caller with single-threaded BLAS.  An end-to-end run is split
into WORKERS fresh worker processes run one after the other, so that its
medians pool over as many memory layouts (one process's layout can make it
10% faster or slower than the next); `--workload all` runs every workload in
turn.  The package is imported from the src/ directory next to this one,
never from an installed copy.
"""

import os

# Before numpy is first imported, here or in a child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKERS = 6               # worker processes of an end-to-end run, one at a time
SETUP_PROBES = 10         # set-up probes of a traced run
KERNEL_RUNS = 3           # calibration kernels timed after each set-up
CHILD_TIMEOUT_S = 120     # beyond a worker's share of the run

END_TO_END_UNITS = {"op_s": "s", "ns_per_point_step": "ns", "setup_s": "s", "peak_rss_mb": "MB"}


def use_checkout_source() -> None:
    """Put the checkout's src/ first on the path.  numpy, turnarcs and the
    modules here that import them are imported later, inside functions, so
    that a child process times the package import from a fresh interpreter."""
    if not (SRC / "turnarcs" / "__init__.py").is_file():
        sys.exit(f"perfbench: no turnarcs package under {SRC}")
    sys.path.insert(0, str(SRC))


def setup_phases(workload, import_s: float) -> dict:
    """Time the set-up after the import: parse, grid, SimulationConfig; then
    the calibration kernel (calibrate.py) in the same interpreter."""
    import calibrate
    import tracing
    import workloads
    tracer = tracing.Tracer()
    workloads.setup(workload, tracer)
    phases = {"cli.import_s": import_s}
    phases.update((name + "_s", s) for name, s in tracer.totals(None).items())
    phases["setup_s"] = sum(phases.values())
    phases["kernel_s"] = statistics.median(
        calibrate.sample_s(workload.calibration) for _ in range(KERNEL_RUNS))
    return phases


def child(spec_json: str) -> None:
    """A fresh interpreter: time the package import and the set-up (a set-up
    probe), and with "seconds" in the spec run a worker's share of the
    end-to-end operations."""
    started = perf_counter()
    import turnarcs.cli  # noqa: F401  (the import being timed)
    import_s = perf_counter() - started
    import workloads
    spec = json.loads(spec_json)
    workload = workloads.Workload(**spec["workload"])
    if "seconds" in spec:
        result = run_share(workload, spec["seed"], spec["seconds"], spec["first"],
                           spec["repeat"], Path(spec["workdir"]), import_s)
    else:
        result = setup_phases(workload, import_s)
    print(json.dumps(result))


def run_child(workload, **spec) -> dict:
    argv = [sys.executable, str(Path(__file__)), "--child",
            json.dumps({"workload": asdict(workload), **spec})]
    done = subprocess.run(argv, capture_output=True, text=True,
                          timeout=spec.get("seconds", 0) + CHILD_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"child process exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def attempt(bench, j: int):
    """Run operation j; an exception is a failed operation, not a crash."""
    import workloads
    try:
        op = bench.run_op(j)
    except Exception:
        op = workloads.Op(float("nan"), 0, traceback.format_exc(limit=3), "")
    if op.problem:
        print(f"perfbench: operation {j} failed: {op.problem}", file=sys.stderr)
    return op


def closed_loop(bench, seconds: float, step, probes: int = 0, first_j: int = 1,
                repeat: bool = True):
    """Operation 0 warms up, then step(j) runs back to back from j = first_j
    for `seconds` of operation time, with `probes` set-up probes spread
    evenly over it (so set-up and operations see the same stretch of host
    speed); with `repeat`, operation 0 then runs again and must reproduce its
    output bit for bit.  Returns (timed results, set-up probe results,
    attempted, failed, digest of operation 0)."""
    first = attempt(bench, 0)
    attempted, failed = 1, int(first.problem is not None)
    timed, setups = [], []
    started = perf_counter()
    probe_s = 0.0
    j = first_j
    while True:
        elapsed = perf_counter() - started - probe_s
        if len(setups) < probes and elapsed >= len(setups) * seconds / probes:
            probe_started = perf_counter()
            setups.append(run_child(bench.workload))
            probe_s += perf_counter() - probe_started
            continue
        if elapsed >= seconds:
            break
        result, ok = step(j)
        timed.append(result)
        attempted += 1
        failed += int(not ok)
        j += 1
    if repeat:
        again = attempt(bench, 0)
        attempted += 1
        if again.problem is None and again.digest != first.digest:
            again.problem = "repeating operation 0 gave a different output"
            print(f"perfbench: {again.problem}", file=sys.stderr)
        failed += int(again.problem is not None)
    return timed, setups, attempted, failed, first.digest


def tail_percentile(values: list[float]):
    """Highest of p99/p95/p90/p75/p50 with at least ten values beyond it."""
    for pct in (99, 95, 90, 75, 50):
        if len(values) * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(values, n=100)[pct - 1]
    return None


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / q[1]


def run_share(workload, seed: int, seconds: float, first: int, repeat: bool, workdir,
              import_s: float = 0.0) -> dict:
    """One worker's share of an end-to-end run: its set-up phases, then
    operations first, first + 1, ... for `seconds`, each timed between two
    samples of the calibration kernel; (seconds, point-steps, kernel
    seconds) per operation."""
    import calibrate
    import workloads
    phases = setup_phases(workload, import_s)
    bench = workloads.Bench(workload, seed, workdir)
    parts = workload.calibration
    kernels = []      # kernels[i]: sample taken just before the i-th timed operation

    def step(j):
        if not kernels:
            kernels.append(calibrate.sample_s(parts))
        op = attempt(bench, j)
        kernels.append(calibrate.sample_s(parts))
        return (op.seconds, op.point_steps, (kernels[-2] + kernels[-1]) / 2), op.problem is None

    timed, _, attempted, failed, digest = closed_loop(bench, seconds, step, first_j=first,
                                                      repeat=repeat)
    return {"setup": phases, "timed": timed, "attempted": attempted, "failed": failed,
            "digest": digest,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def end_to_end(workload, seed: int, seconds: float, workers: int, workdir) -> dict:
    """WORKERS fresh processes one after the other, each with an equal share
    of `seconds`; with workers = 0 one share runs in this process (the
    self-test's way).  Times are medians over all shares in reference
    seconds (calibrate.py): each operation is scaled by the mean of the
    kernel samples just before and after it, each set-up by the kernel timed
    in its own interpreter.  Operation 0 opens every share and must give the
    same output in all of them; the last share repeats it at its end."""
    import calibrate
    parts = workload.calibration
    if workers == 0:
        shares = [run_share(workload, seed, seconds, 1, True, workdir)]
    else:
        shares, first = [], 1
        for i in range(workers):
            shares.append(run_child(workload, seed=seed, seconds=seconds / workers, first=first,
                                    repeat=i == workers - 1, workdir=str(workdir)))
            first += len(shares[-1]["timed"])
    timed = [record for share in shares for record in share["timed"]]
    setups = [share["setup"] for share in shares]
    attempted = sum(share["attempted"] for share in shares)
    failed = sum(share["failed"] for share in shares)
    digests = {share["digest"] for share in shares if share["digest"]}
    if len(digests) > 1:
        failed += len(shares) - 1
        print("perfbench: operation 0 gave different outputs in different processes",
              file=sys.stderr)
    done = [(s, steps, calibrate.scale(parts, k)) for s, steps, k in timed if steps]  # returned
    op_s = [s for s, _, _ in done]
    ns = [s / steps * 1e9 for s, steps, _ in done]
    metrics = {
        "op_s": statistics.median(s * f for s, _, f in done),
        "ns_per_point_step": statistics.median(s / steps * 1e9 * f for s, steps, f in done),
        "setup_s": statistics.median(p["setup_s"] * calibrate.scale(parts, p["kernel_s"])
                                     for p in setups),
        "peak_rss_mb": max(share["peak_rss_mb"] for share in shares),
    }
    print(f"{len(timed)} timed operations in {seconds:g} s over {len(shares)} processes "
          f"(+ a warm-up in each and a repeat); failed {failed} of {attempted}, "
          f"failed_frac = {failed / attempted:.4g}")
    print(f"wall (unscaled) medians: op_s {statistics.median(op_s):.6g} s, "
          f"ns_per_point_step {statistics.median(ns):.6g} ns, setup_s "
          f"{statistics.median(p['setup_s'] for p in setups):.6g} s; calibration kernel "
          f"{statistics.median(k for _, _, k in timed) * 1e3:.4g} ms around operations, "
          f"{statistics.median(p['kernel_s'] for p in setups) * 1e3:.4g} ms after set-up "
          f"(reference {sum(calibrate.REFERENCE_S[part] for part in parts) * 1e3:g} ms)")
    tail = tail_percentile(op_s)
    if tail:
        print(f"op_s p{tail[0]} = {tail[1]:.6g} s")
    if len(done) >= 4:
        print(f"within-run spread (IQR/median over operations): op_s {spread(op_s):.1%}, "
              f"ns_per_point_step {spread(ns):.1%}")
    print("set-up phases (median s): " + ", ".join(
        f"{k} {statistics.median(p[k] for p in setups):.4g}" for k in setups[0]))
    return {"attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}}


def per_layer(bench, seconds: float, probes: int, env: dict) -> dict:
    import layers
    import tracing
    tracer = tracing.Tracer()
    samples = []

    def step(j):
        op = attempt(bench, j)
        if op.problem is None:      # a failed operation is counted, not replayed
            tracer.op = j
            samples.append(layers.traced_op(bench, tracer, j, op, first=not samples))
        return op, op.problem is None

    _, setups, attempted, failed, _ = closed_loop(bench, seconds, step, probes)
    metrics = layers.summarize(samples, statistics.median(p["cli.import_s"] for p in setups))
    path = OUT / f"trace-{bench.workload.name}-seed{bench.seed}.json"
    tracer.dump(path, workload=bench.workload.name, seed=bench.seed, environment=env)
    print(f"{len(samples)} traced operations; spans written to {path}")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 probes: int = SETUP_PROBES, workers: int = WORKERS, workload=None) -> dict:
    """probes: set-up probes of a traced run; workers: worker processes of an
    end-to-end run (0 runs it in this process)."""
    import workloads
    workload = workload or workloads.WORKLOADS[name]
    env = environment()
    print(f"workload {workload.name} seed {seed} trace {int(trace)}; "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        if trace:
            result = per_layer(workloads.Bench(workload, seed, workdir), seconds, probes, env)
        else:
            result = end_to_end(workload, seed, seconds, workers, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for key, metric in result["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    return {"correct": result["failed"] == 0, **result}


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    import workloads
    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(argv).returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    use_checkout_source()
    if args.child:
        child(args.child)
        return 0
    import workloads
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
