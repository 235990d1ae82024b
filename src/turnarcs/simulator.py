"""Simulation of isotropic random fields on the d-sphere by random waves.

A single wave is a weighted Gegenbauer polynomial of a random degree,
evaluated along the meridians through a uniformly random pole and constant on
the parallels orthogonal to it (a cosine of the geodesic angle on the
circle).  Averaging L independent waves scaled by 1/sqrt(L) yields a field
with the exact target covariance and an approximately Gaussian law.

Reproducibility contract: every wave draws from its own counter-based stream
keyed by (master seed, wave index), and waves are accumulated in fixed groups
merged in ascending order, so threaded and sequential runs produce
bit-identical values.
"""

import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import islice

import numpy as np

from .covariance import factor_schoenberg_matrix, require_valid
from .degree_sampling import support_covers
from .gegenbauer import _recurrence, gegenbauer_eval_weighted

__all__ = [
    "SimulationError",
    "WaveParams",
    "SimulationConfig",
    "Realization",
    "sample_pole",
    "geodesic",
    "draw_wave",
    "wave_eval_scalar",
    "wave_eval_vector",
    "simulate",
    "single_wave_values",
    "simulate_ensemble",
    "clt_marginal_samples",
]

POINT_BLOCK = 16384   # points per recurrence block (keeps the rolling arrays hot)
WAVE_GROUP = 64       # waves per accumulator group; fixed so that threaded and
                      # sequential runs share the same summation tree
NODES_PER_DEGREE = 16 # tabulated profiles: uniform theta intervals per unit of degree
# cost model of the tabulated path, in units of one recurrence step at one
# point (~1.4 ns on a 2-vCPU x86 host): interpolating one point costs ~8 steps,
# and each recurrence step over the table carries ~2-3k points' worth of
# fixed ufunc overhead; the measured break-even degree is ~12
INTERP_STEPS = 10
TABLE_STEP_COST = 2500
# |tabulated - exact profile| / (|w| G_n(1)): quintic Hermite remainder
# h^6 / (6! 2^6) |f^(6)| with h = pi / (16 n) and Bernstein's |f^(6)| <= n^6 |w| G_n(1)
PROFILE_ERROR_BOUND = (np.pi / NODES_PER_DEGREE) ** 6 / 46080.0
SUPPORT_CHECK_MAX = 10_000


class SimulationError(RuntimeError):
    """Configuration or runtime failure of the wave simulation."""


@dataclass
class WaveParams:
    """Randomness of one basic wave: sign, pole, degree and (vector case)
    the 0-based component index of the factor column."""

    epsilon: int
    pole: np.ndarray
    degree: int
    component: int | None = None


@dataclass
class Realization:
    points: np.ndarray           # (npts, d+1)
    values: np.ndarray           # (npts, p)
    metadata: dict = field(default_factory=dict)


class SimulationConfig:
    """Validated bundle of model, degree law, wave count and master seed."""

    def __init__(self, model, degrees, L: int, seed: int,
                 support_check_max: int = SUPPORT_CHECK_MAX):
        require_valid(model)
        if L < 1:
            raise SimulationError(f"wave count must be >= 1, got {L}")
        uncovered = support_covers(degrees, model, support_check_max)
        if uncovered is not None:
            raise SimulationError(
                f"degree law assigns no mass to degree {uncovered}, which the "
                "model loads"
            )
        self.model = model
        self.degrees = degrees
        self.L = int(L)
        self.seed = int(seed)
        self._factors: dict[int, np.ndarray] = {}
        self._factor_lock = threading.Lock()

    @property
    def d(self) -> int:
        return self.model.d

    @property
    def p(self) -> int:
        return getattr(self.model, "p", 1)

    def factor_columns(self, degree: int) -> np.ndarray:
        """Square-root factor of the Schoenberg matrix at one degree, cached."""
        with self._factor_lock:
            got = self._factors.get(degree)
            if got is None:
                B = self.model.schoenberg_matrix(degree)
                got = factor_schoenberg_matrix(B, degree=degree).matrix
                self._factors[degree] = got
            return got

    def metadata(self) -> dict:
        return {
            "model": self.model.describe(),
            "d": self.d,
            "p": self.p,
            "L": self.L,
            "seed": self.seed,
            "degrees": self.degrees.spec_string(),
        }


def check_points(points, d: int) -> np.ndarray:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != d + 1:
        raise SimulationError(
            f"points must have {d + 1} coordinates for the {d}-sphere, "
            f"got {points.shape[1]}"
        )
    if points.shape[0] == 0:
        raise SimulationError("at least one point is required")
    if not np.all(np.isfinite(points)):
        raise SimulationError("points must have finite coordinates")
    norms = np.linalg.norm(points, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-12:
        raise SimulationError("points must have unit norm within 1e-12")
    return points


def geodesic(x1, x2) -> float:
    """Great-circle angle arccos(x1.x2), with the product clamped to [-1, 1]."""
    dot = float(np.dot(np.asarray(x1, float), np.asarray(x2, float)))
    return float(np.arccos(min(1.0, max(-1.0, dot))))


def sample_pole(d: int, rng, size=None):
    """Uniform draw(s) on the d-sphere: normalized standard normal vectors;
    degenerate near-zero norms are redrawn."""
    if d < 1:
        raise ValueError("sphere dimension must be >= 1")
    m = 1 if size is None else int(size)
    v = rng.normal(size=(m, d + 1))
    norms = np.linalg.norm(v, axis=1)
    while True:
        bad = np.nonzero(norms < 1e-150)[0]
        if bad.size == 0:
            break
        v[bad] = rng.normal(size=(bad.size, d + 1))
        norms[bad] = np.linalg.norm(v[bad], axis=1)
    v /= norms[:, None]
    return v[0] if size is None else v


def wave_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one wave, keyed by (master seed, wave index).

    Seeds are folded to their low 64 bits; the index occupies the second key
    word, so streams of different waves never collide for any seed.
    """
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_wave(config: SimulationConfig, rng) -> WaveParams:
    """Draw one wave's randomness.  Order is part of the reproducibility
    contract: sign, pole, degree, then component."""
    epsilon = int(rng.integers(0, 2)) * 2 - 1
    pole = sample_pole(config.d, rng)
    degree = int(config.degrees.sample(rng))
    component = int(rng.integers(0, config.p)) if config.p > 1 else None
    return WaveParams(epsilon=epsilon, pole=pole, degree=degree, component=component)


def _tabulate_pays(degree: int, npts: int) -> bool:
    """Cost model: a table run (16n+1 nodes, n steps) plus one interpolation
    per point is cheaper than n recurrence steps per point."""
    steps = degree + 1
    table = steps * (NODES_PER_DEGREE * degree + TABLE_STEP_COST)
    return table + INTERP_STEPS * npts < steps * npts


def _profile_nodes(lam: float, degree: int, weight: float, theta: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f(theta) = weight * G_degree(cos theta) and its first two theta
    derivatives at the nodes theta (in [0, pi], poles given exactly).

    Values come from the last two rows of the exact weighted recurrence,
    weight * G_{n-1} and weight * G_n; then
    (1-t^2) G_n' = -n t G_n + (n+2lam-1) G_{n-1} gives f', and the
    Gegenbauer ODE f'' = -n(n+2lam) f - 2lam cot(theta) f' gives f''.  At theta in {0, pi}, f' = 0 and f'' = -n(n+2lam) f / (1+2lam).
    """
    n = degree
    t = np.cos(theta)
    f, prev = np.empty_like(t), np.empty_like(t)
    for s in range(0, t.size, POINT_BLOCK):
        block = slice(s, s + POINT_BLOCK)
        prev[block], f[block] = deque(islice(_recurrence(lam, t[block], weight), n + 1),
                                      maxlen=2)
    eig = n * (n + 2.0 * lam)
    pole = (theta == 0.0) | (theta == np.pi)
    inner = ~pole
    sin = np.sin(theta[inner])
    d1 = np.zeros_like(t)
    d2 = np.empty_like(t)
    d1[inner] = (n * t[inner] * f[inner] - (n + 2.0 * lam - 1.0) * prev[inner]) / sin
    d2[inner] = -eig * f[inner] - (2.0 * lam) * (t[inner] / sin) * d1[inner]
    d2[pole] = -eig * f[pole] / (1.0 + 2.0 * lam)
    return f, d1, d2


def _profile_table(lam: float, degree: int, weight: float) -> np.ndarray:
    """Quintic Hermite coefficients of weight * G_degree(cos theta) on 16n
    uniform intervals of [0, pi], shape (6, 16n + 1), lowest power first in
    the local coordinate u in [0, 1).  The last column is the constant
    f(pi), so theta = pi needs no clamp."""
    m = NODES_PER_DEGREE * degree
    h = np.pi / m
    f, d1, d2 = _profile_nodes(lam, degree, weight, np.linspace(0.0, np.pi, m + 1))
    f0, f1 = f[:-1], f[1:]
    D0, D1 = h * d1[:-1], h * d1[1:]
    E0, E1 = (h * h) * d2[:-1], (h * h) * d2[1:]
    c = np.zeros((6, m + 1))
    c[0] = f
    c[1, :m] = D0
    c[2, :m] = 0.5 * E0
    c[3, :m] = 10.0 * (f1 - f0) - 6.0 * D0 - 4.0 * D1 - 1.5 * E0 + 0.5 * E1
    c[4, :m] = 15.0 * (f0 - f1) + 8.0 * D0 + 7.0 * D1 + 1.5 * E0 - E1
    c[5, :m] = 6.0 * (f1 - f0) - 3.0 * (D0 + D1) - 0.5 * (E0 - E1)
    return c


def _interpolate(table: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Evaluate a _profile_table at theta = arccos(t) by Horner's rule.
    Interval indices of t in [-1, 1] lie in [0, 16n]; clip mode only skips
    the bounds check."""
    u = np.arccos(t)
    u *= (table.shape[1] - 1) / np.pi
    j = u.astype(np.intp)
    u -= j
    out = table[5].take(j, mode="clip")
    for row in table[4::-1]:
        out *= u
        out += row.take(j, mode="clip")
    return out


def _gegenbauer_blocked(lam: float, degree: int, t: np.ndarray, weight: float) -> np.ndarray:
    """weight * G_degree(t) in cache-sized blocks; the weight rides in the
    recurrence seeds so intermediates never exceed the final amplitude.

    Where _tabulate_pays, the profile is tabulated once and interpolated
    at the points, within PROFILE_ERROR_BOUND of the wave amplitude;
    otherwise every point runs the exact recurrence.
    """
    if _tabulate_pays(degree, t.size):
        kernel = partial(_interpolate, _profile_table(lam, degree, weight))
    else:
        kernel = partial(gegenbauer_eval_weighted, lam, degree, weight=weight)
    out = np.empty_like(t)
    for s in range(0, t.size, POINT_BLOCK):
        out[s : s + POINT_BLOCK] = kernel(t[s : s + POINT_BLOCK])
    return out


def _wave_weights(config: SimulationConfig, degrees) -> np.ndarray:
    """Weights of waves of the given degrees, vectorized:
    sqrt(b_k (2k+d-1) / (a_k (d-1))) on d >= 2 and sqrt(c_k b_k / a_k) on the
    circle (c_0 = 1, c_k = 2), where a_k is the degree law's mass and b_k the
    Schoenberg coefficient, or p for multivariate models (whose factor
    column is applied by the caller).  Computed in log space; a degree of
    zero probability is rejected."""
    kappas = np.asarray(degrees, dtype=np.int64)
    outside = ~np.asarray(config.degrees.in_support(kappas), dtype=bool)
    if outside.any():
        raise SimulationError(
            f"degree {kappas[outside][0]} has zero probability under the degree law")
    d, p = config.d, config.p
    log_a = config.degrees.log_pmf(kappas)
    log_b = config.model.log_schoenberg_coeff(kappas) if p == 1 else np.log(p)
    if d == 1:
        log_c = np.where(kappas == 0, 0.0, np.log(2.0))
        return np.exp(0.5 * (log_c + log_b - log_a))
    log_w2 = log_b + np.log(2.0 * kappas + d - 1.0) - log_a - np.log(d - 1.0)
    return np.exp(0.5 * log_w2)


def _wave_profile(wave: WaveParams, weight: float, d: int, points: np.ndarray) -> np.ndarray:
    """Signed, weighted profile of one wave at checked points, shape (npts,).
    For multivariate models the factor column is applied by the caller."""
    t = points @ wave.pole
    np.clip(t, -1.0, 1.0, out=t)
    signed = wave.epsilon * weight
    if d == 1:
        return signed * np.cos(wave.degree * np.arccos(t))
    return _gegenbauer_blocked(0.5 * (d - 1), wave.degree, t, signed)


def _wave_values(wave: WaveParams, weight: float, config: SimulationConfig,
                 points: np.ndarray) -> np.ndarray:
    """Values of one wave at checked points, shape (npts, p)."""
    profile = _wave_profile(wave, weight, config.d, points)
    if config.p == 1:
        return profile[:, None]
    return np.outer(profile, config.factor_columns(wave.degree)[:, wave.component])


def wave_eval_scalar(wave: WaveParams, config: SimulationConfig, points) -> np.ndarray:
    """Values of one scalar wave at the given points."""
    if config.p != 1:
        raise SimulationError("scalar wave evaluation requires a univariate model")
    points = check_points(points, config.d)
    return _wave_profile(wave, _wave_weights(config, [wave.degree])[0], config.d, points)


def wave_eval_vector(wave: WaveParams, config: SimulationConfig, points) -> np.ndarray:
    """Values of one vector wave at the given points, shape (npts, p)."""
    p = config.p
    if p < 2:
        raise SimulationError("vector wave evaluation requires a multivariate model")
    if wave.component is None or not 0 <= wave.component < p:
        raise SimulationError("wave component index out of range")
    points = check_points(points, config.d)
    return _wave_values(wave, _wave_weights(config, [wave.degree])[0], config, points)


def simulate(config: SimulationConfig, points, n_threads: int | None = None) -> Realization:
    """Central-limit ensemble of config.L waves at the given points.

    Pure function of (config, points): rerunning with the same seed gives
    byte-identical values whether n_threads is None or any worker count.
    The whole wave plan (draws, weights, support and Schoenberg factor
    checks) comes first, so an invalid model fails before any point work.
    """
    points = check_points(points, config.d)
    L = config.L
    plan = [draw_wave(config, wave_rng(config.seed, idx)) for idx in range(L)]
    degrees = [wave.degree for wave in plan]
    weights = _wave_weights(config, degrees)
    if config.p > 1:
        for degree in dict.fromkeys(degrees):
            config.factor_columns(degree)

    def group_partial(bounds):
        lo, hi = bounds
        part = np.zeros((points.shape[0], config.p))
        for idx in range(lo, hi):
            vals = _wave_values(plan[idx], weights[idx], config, points)
            if not np.all(np.isfinite(vals)):
                raise SimulationError(f"non-finite wave values at wave index {idx}")
            part += vals
        return part

    groups = [(lo, min(lo + WAVE_GROUP, L)) for lo in range(0, L, WAVE_GROUP)]
    if n_threads is not None and n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            partials = list(pool.map(group_partial, groups))
    else:
        partials = [group_partial(g) for g in groups]

    values = np.zeros((points.shape[0], config.p))
    for part in partials:
        values += part
    values *= 1.0 / np.sqrt(L)
    metadata = {**config.metadata(), "profile_error_bound": PROFILE_ERROR_BOUND}
    return Realization(points=points, values=values, metadata=metadata)


# ---------------------------------------------------------------------------
# batched single-wave paths (Monte Carlo validation machinery)
# ---------------------------------------------------------------------------

def _counts_at_least(kappas_sorted_desc: np.ndarray, k_max: int) -> np.ndarray:
    """counts[n] = number of waves with degree >= n, for n = 0..k_max+1."""
    cnt = np.bincount(kappas_sorted_desc, minlength=k_max + 2)
    return np.concatenate([np.cumsum(cnt[::-1])[::-1], [0]])[: k_max + 2]


def _profiles_batch(d: int, kappas: np.ndarray, t: np.ndarray,
                    scale: np.ndarray | None = None) -> np.ndarray:
    """Rows of scale_i * G_{kappa_i}^((d-1)/2)(t_i, :) (cosines on the circle).

    One shared recurrence sweep over the degree-sorted rows; the active set
    shrinks as degrees are passed, so total work is sum(kappa_i) row-updates.
    Per-row scales (e.g. signed wave weights) ride in the recurrence seeds,
    which keeps the intermediates of huge-degree tiny-coefficient waves
    inside double range.
    """
    m, npts = t.shape
    if scale is None:
        scale = np.ones(m)
    if d == 1:
        return scale[:, None] * np.cos(kappas[:, None] * np.arccos(np.clip(t, -1.0, 1.0)))
    order = np.argsort(-kappas, kind="stable")
    k_s = kappas[order]
    counts = _counts_at_least(k_s, int(k_s[0]) if m else 0)
    rows = _recurrence(0.5 * (d - 1), np.clip(t[order], -1.0, 1.0),
                       np.asarray(scale, dtype=float)[order, None], counts)
    out = np.empty((m, npts))
    for n, g in enumerate(rows):
        done = slice(counts[n + 1], counts[n])      # sorted rows of degree n
        out[order[done]] = g[done]
        if counts[n + 1] == 0:
            break
    return out


def single_wave_values(config: SimulationConfig, points, M: int, rng) -> np.ndarray:
    """M independent single waves evaluated at the points, shape (M, npts, p).

    Same law as M runs of simulate with L=1 but vectorized across waves;
    meant for moment checks, where the caller owns the stream.
    """
    points = check_points(points, config.d)
    p = config.p
    eps = rng.integers(0, 2, size=M) * 2 - 1
    poles = sample_pole(config.d, rng, size=M)
    kappas = np.asarray(config.degrees.sample(rng, size=M), dtype=np.int64)
    # one matrix-vector product per wave, as points @ pole in simulate, so a
    # row equals wave_eval_* of the same wave bit for bit
    t = np.matmul(points, poles[:, :, None])[:, :, 0]
    profiles = _profiles_batch(config.d, kappas, t, eps * _wave_weights(config, kappas))
    if p == 1:
        return profiles[:, :, None]
    iotas = rng.integers(0, p, size=M)
    gamma = np.empty((M, p))
    for degree in np.unique(kappas):
        rows = kappas == degree
        cols = config.factor_columns(int(degree))
        gamma[rows] = cols.T[iotas[rows]]
    return profiles[:, :, None] * gamma[:, None, :]


def simulate_ensemble(config: SimulationConfig, points, M: int, rng,
                      budget: int = 24_000_000, wave_cap: int = 2_000_000) -> np.ndarray:
    """M independent realizations of the L-wave ensemble, shape (M, npts, p).

    Statistically identical to M calls of simulate with fresh seeds, built on
    the batched wave path; per-chunk memory is capped by `budget` value
    doubles and `wave_cap` simultaneous waves.
    """
    points = check_points(points, config.d)
    npts = points.shape[0]
    L = config.L
    chunk = max(1, min(budget // max(1, L * npts * config.p), wave_cap // L))
    out = np.empty((M, npts, config.p))
    done = 0
    while done < M:
        m = min(chunk, M - done)
        waves = single_wave_values(config, points, m * L, rng)
        out[done : done + m] = waves.reshape(m, L, npts, config.p).sum(axis=1)
        done += m
    out *= 1.0 / np.sqrt(L)
    return out


def clt_marginal_samples(config: SimulationConfig, point, M: int, rng) -> np.ndarray:
    """M draws of the standardizable ensemble value at a single point (p=1)."""
    if config.p != 1:
        raise SimulationError("marginal sampling is defined for scalar models")
    return simulate_ensemble(config, np.atleast_2d(point), M, rng)[:, 0, 0]
