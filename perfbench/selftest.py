"""Fast self-test of the benchmark at tiny sizes (under a minute):

    python3 perfbench/selftest.py

On every workload, in both modes, it checks that each metric BENCHMARK.json
names is emitted with its unit and a finite value, and that the unperturbed
run has no failed operation.  It then perturbs each workload's output (one
checked field value; every realization of the validate ensemble, or one of
its values set to NaN) and checks that the corruption is counted as failed.
"""

import contextlib
import json
import math
import sys
from dataclasses import replace

import run

run.use_checkout_source()

import numpy as np  # noqa: E402
from turnarcs import cli, simulator  # noqa: E402

import workloads  # noqa: E402

TINY = {
    "desk_nb_d2": {"--L": "4", "--grid": "latlon:8x16"},
    "zeta_d3_slice": {"--L": "10", "--grid": "slice3:0.25:8x16"},
    "cli_bivariate_csv": {"--L": "3", "--grid": "latlon:8x16"},
    "ensemble_validate": {"--L": "20", "--M": "40", "--grid": "latlon:4x8"},
}
SECONDS = 0.3
SEED = 7


def tiny(workload):
    flags = list(workload.flags)
    for flag, value in TINY[workload.name].items():
        flags[flags.index(flag) + 1] = value
    return replace(workload, flags=tuple(flags))


@contextlib.contextmanager
def patched(module, name, wrap):
    original = getattr(module, name)
    setattr(module, name, wrap(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def corrupt_one_value(simulate):
    """simulate, with one of the oracle's checked values moved by 1e-3 RMS."""
    def wrapped(config, points, *args, **kwargs):
        realization = simulate(config, points, *args, **kwargs)
        values = realization.values
        row = workloads.sample_rows(values.shape[0])[0]
        values[row, 0] += 1e-3 * np.sqrt(np.mean(np.square(values)))
        return realization
    return wrapped


def offset_ensemble(simulate_ensemble):
    return lambda *args, **kwargs: simulate_ensemble(*args, **kwargs) + 3.0


def nan_in_ensemble(simulate_ensemble):
    """simulate_ensemble, with one value of the first realization NaN."""
    def wrapped(*args, **kwargs):
        values = simulate_ensemble(*args, **kwargs)
        values[0, 0, 0] = np.nan
        return values
    return wrapped


def perturbations(name):
    """(what is corrupted, context that corrupts it) for one workload."""
    if name == "ensemble_validate":
        return [("offset ensemble", patched(cli, "simulate_ensemble", offset_ensemble)),
                ("NaN in ensemble", patched(cli, "simulate_ensemble", nan_in_ensemble))]
    if name == "cli_bivariate_csv":    # the CSV then differs from library simulate
        return [("one CSV value", patched(cli, "simulate", corrupt_one_value))]
    return [("one field value", patched(simulator, "simulate", corrupt_one_value))]


def check_metrics(result, expected, label) -> list[str]:
    problems = []
    got = result["metrics"]
    if set(got) != set(expected):
        problems.append(f"{label}: metrics {sorted(set(got) ^ set(expected))} missing or extra")
    for name, unit in expected.items():
        metric = got.get(name, {})
        if metric.get("unit") != unit:
            problems.append(f"{label}: {name} has unit {metric.get('unit')!r}, expected {unit!r}")
        if not isinstance(metric.get("value"), (int, float)) or not math.isfinite(metric["value"]):
            problems.append(f"{label}: {name} value {metric.get('value')!r} is not finite")
    return problems


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    expected = {trace: {m["name"]: m["unit"] for m in spec[key]}
                for trace, key in ((False, "end_to_end"), (True, "per_layer"))}
    problems = []
    for name, workload in workloads.WORKLOADS.items():
        small = tiny(workload)
        for trace in (False, True):
            label = f"{name} trace {int(trace)}"
            result = run.run_workload(name, SEED, SECONDS, trace, probes=1, workers=2,
                                      workload=small)
            problems += check_metrics(result, expected[trace], label)
            if result["failed"]:
                problems.append(f"{label}: {result['failed']} operations failed unperturbed")
        for what, perturbation in perturbations(name):
            with perturbation:
                result = run.run_workload(name, SEED, SECONDS, False, workers=0, workload=small)
            if not result["failed"] or result["correct"]:
                problems.append(f"{name}: {what} was not counted as failed")
            else:
                print(f"{name}: {what} counted, failed_frac = "
                      f"{result['failed'] / result['attempted']:.3g}")
    for problem in problems:
        print(f"SELFTEST FAIL {problem}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
