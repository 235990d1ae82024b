"""Host-speed calibration for the end-to-end times.

The benchmark shares a few cores of a host whose speed drifts by 20-40% over
tens of seconds to minutes, which moves every workload's times together.  A
fixed reference kernel, which calls nothing in the package, is timed before
and after each operation (the mean of the two samples brackets it) and right
after each set-up, in the same interpreter; a time is reported as

    wall seconds * reference seconds / kernel seconds

(median over operations), that is in seconds of a host on which the kernel
takes its reference time.  A change to the package moves the operation and
not the kernel, so it moves the scaled time by the same share as the wall
time.

The kernel has two parts, for the two kinds of work the operations do, which
the host's drift does not slow by the same share:

- "numpy": a three-term recurrence over a float64 array, the shape of the
  Gegenbauer recurrence and of simulate's other per-wave passes;
- "python": rows of a small table formatted and joined one by one, the shape
  of the CSV writer's loop.

A workload names the parts that match its operation (see workloads.py).
"""

from time import perf_counter

import numpy as np

_X = np.linspace(-0.99, 0.99, 62_500)
_STEPS = 30
_TABLE = np.column_stack([np.linspace(-90, 90, 700), np.linspace(0, 360, 700),
                          np.sin(np.arange(700.0)), np.cos(np.arange(700.0))])


def numpy_s() -> float:
    started = perf_counter()
    x = _X
    previous, current = np.ones_like(x), 2.0 * x
    for _ in range(_STEPS):
        previous, current = current, 2.0 * x * current - previous
    return perf_counter() - started


def python_s() -> float:
    started = perf_counter()
    lines = [",".join(f"{value:.17g}" for value in row) for row in _TABLE]
    "\n".join(lines)
    return perf_counter() - started


PARTS = {"numpy": numpy_s, "python": python_s}
# Seconds each part took on the 2 GHz Xeon vCPU the benchmark was sized on.
REFERENCE_S = {"numpy": 0.0033, "python": 0.0035}


def sample_s(parts: tuple) -> float:
    """Seconds of one run of the kernel made of `parts`."""
    return sum(PARTS[part]() for part in parts)


def scale(parts: tuple, kernel_seconds: float) -> float:
    """Factor from wall seconds to reference seconds."""
    return sum(REFERENCE_S[part] for part in parts) / kernel_seconds
