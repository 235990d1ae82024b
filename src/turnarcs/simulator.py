"""Simulation of isotropic random fields on the d-sphere by random waves.

A single wave is a weighted Gegenbauer polynomial of a random degree,
evaluated along the meridians through a uniformly random pole and constant on
the parallels orthogonal to it (a cosine of the geodesic angle on the
circle).  Averaging L independent waves scaled by 1/sqrt(L) yields a field
with the exact target covariance and an approximately Gaussian law.

Waves stay arrays from draw to sum (a _Plan of signs, poles, degrees and
components); WaveParams is the public one-wave replay (draw_wave, wave_eval_*),
checked before any point is read.  Each wave profile takes one of the methods
in _METHODS (affine, circle, exact recurrence, table, 3-sphere closed form,
and on d <= 3 the Chebyshev series of degrees 8 to SERIES_MAX_DEGREE, whose
unit-weight polynomial Clenshaw's recurrence sums in about half a recurrence
step per degree before the weight multiplies it once).  Each
method carries its cost and its error bound: _profile_methods gives rows of
degree 0 and 1 the affine map, every other row on d >= 2 its cheapest
method, and simulate records the largest bound among its rows.  Every entry
point sums its waves through _wave_sums: simulate one run per wave group,
simulate_ensemble one run of L waves per realization, single_wave_values and
wave_eval_* runs of one wave.  A run's waves of degree 0 and 1 add up to one
affine function A + x V of the point x (G_0 = 1, G_1(t) = 2 lam t, or t on
the circle), evaluated by one product over all points.  Every run's sum
starts from -0.0, adds that map if the run has one, then adds its other
waves in wave order; x + (-0.0) is x for every double x, zeros' signs
included, and a wave of weight zero adds nothing.  The point count picks
the form of the rest, one wave at a time or degree-sorted sweeps of many
waves on few points; a wave's doubles and the order of the sums do not
depend on it.  Every row function is elementwise and keeps G_n(-t) =
(-1)^n G_n(t) bit for bit, so on points that pair up as exact antipodes
(lat-lon face centres with an even longitude count, their sections and
slices at w = 0) every row is evaluated at one point of each pair.

Reproducibility contract: every wave draws from its own counter-based stream
keyed by (master seed, wave index), and waves are accumulated in fixed groups
added in ascending order as they are made, each group starting from -0.0,
adding its affine map if it has one and then its other waves in wave order,
so threaded and sequential runs produce bit-identical values.
"""

import operator
from collections import deque, namedtuple
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import islice, pairwise

import numpy as np
from scipy import fft

from .covariance import factor_schoenberg_matrix
from .degree_sampling import support_covers
from .gegenbauer import _recurrence

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

POINT_BLOCK = 16384   # elements per recurrence tile (keeps the rolling arrays hot)
WAVE_GROUP = 64       # waves per accumulator group; fixed so that threaded and
                      # sequential runs share the same summation tree
NODES_PER_DEGREE = 16 # tabulated profiles: uniform theta intervals per unit of degree
FOURIER_MAX_LAM = 1.0 # tables up to this lam (d <= 3) come from the Fourier series
# cost model of the tabulated path, in units of one recurrence step at one
# point (~1.4 ns on a 2-vCPU x86 host): interpolating one point costs ~8 steps,
# and each recurrence step over a recurrence table (d >= 4) carries ~2-3k
# points' worth of fixed ufunc overhead; the measured break-even degree is ~12
INTERP_STEPS = 10
TABLE_STEP_COST = 2500
# a Fourier table costs a fixed ~40k steps (transform and Hermite set-up
# calls) plus ~25 per node; fitted to the measured break-even degrees on
# d = 2, about 11 on 30k-62k points, 16 on 10k and 18 on 5k
FOURIER_TABLE_COST = 40_000
FOURIER_NODE_COST = 25
# the 3-sphere closed form costs ~30 steps per point (an arccos and two sines,
# ~50 ns) and ~12k steps per call (~18 us of numpy calls)
CHEBYSHEV_ROW_COST = 12_000
CHEBYSHEV_POINT_COST = 30
# |tabulated - exact profile| / (|w| G_n(1)): quintic Hermite remainder
# h^6 / (6! 2^6) |f^(6)| with h <= pi / (16 n) and Bernstein's |f^(6)| <= n^6 |w| G_n(1)
PROFILE_ERROR_BOUND = (np.pi / NODES_PER_DEGREE) ** 6 / 46080.0
# |closed-form - exact profile| / (|w| (n+1)), the 3-sphere rows above the
# Fourier column limit: the sum of six roundings' worst cases, see
# _chebyshev_row (measured at most 1.8 eps)
CHEBYSHEV_ERROR_BOUND = 6.0 * np.finfo(float).eps
# the Chebyshev series of _clenshaw (d <= 3) costs about (n + 2) / 2
# recurrence steps per point, ~0.8 ns per point and degree against 1.4-1.9
# for the recurrence (16,384 points, n = 200); the 2 is fitted to the
# measured break-even degrees against the Fourier tables, about 20 on 62,500
# points and 29 on 10,000.  It beats the recurrence from degree ~6 one wave
# at a time on 10k-62k points and ~8 in the bands of few points.  Its rows
# stop at SERIES_MAX_DEGREE, where a row's K + 1 coefficients fill one tile
SERIES_POINT_COST = 2
SERIES_MIN_DEGREE = 8
SERIES_MAX_DEGREE = 2 * POINT_BLOCK
# |series - exact profile| / (|w| G_n(1)) <= SERIES_ERROR_BOUND (n+1)^2, i.e.
# (n+1)/2 times (n+1) eps: rounding y = 4t^2 - 2 moves t by up to eps |t| / 4,
# up to eps n(n+2lam) / (4 (1+2lam)) near t = +-1, Clenshaw's steps round
# within eps |b_i| <= eps (K-i+1) G_n(1) each, entering the unit-weight sum
# with a weight of at most 1, and the product by w within eps / 2 (measured
# at most 0.082 eps (n+1)^2, next to t = 1 at n theta ~ 1, up to
# SERIES_MAX_DEGREE).  The exact recurrence takes it too
SERIES_ERROR_BOUND = 0.5 * np.finfo(float).eps
SUPPORT_CHECK_MAX = 10_000        # degrees up to which the law must cover the model
ENSEMBLE_BUDGET = 24_000_000      # simulate_ensemble: value doubles per chunk
ENSEMBLE_WAVE_CAP = 2_000_000     # simulate_ensemble: simultaneous waves per chunk
ENSEMBLE_PIECE = 262_144          # simulate_ensemble: value doubles per _wave_sums call


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


def _as_index(value) -> int:
    """value read through operator.index, or -1 when it is no integer."""
    try:
        return operator.index(value)
    except TypeError:
        return -1


def _require_support(model, degrees) -> None:
    """Raise SimulationError when the degree law assigns no mass to a degree
    up to SUPPORT_CHECK_MAX that the model loads."""
    uncovered = support_covers(degrees, model, SUPPORT_CHECK_MAX)
    if uncovered is not None:
        raise SimulationError(
            f"degree law assigns no mass to degree {uncovered}, which the model loads")


def _wave_total(L) -> int:
    """L read through _as_index: an integer >= 1, else SimulationError."""
    count = _as_index(L)
    if count < 1:
        raise SimulationError(f"wave count must be an integer >= 1, got {L!r}")
    return count


class SimulationConfig:
    """Validated bundle of model, degree law, wave count and master seed."""

    def __init__(self, model, degrees, L: int, seed: int):
        count = _wave_total(L)
        try:
            seed = operator.index(seed)
        except TypeError:
            raise SimulationError(f"seed must be an integer, got {seed!r}") from None
        _require_support(model, degrees)
        self.model = model
        self.degrees = degrees
        self.L = count
        self.seed = seed

    @property
    def d(self) -> int:
        return self.model.d

    @property
    def p(self) -> int:
        return self.model.p

    def factor_columns(self, degree: int) -> np.ndarray:
        """Square-root factor of the Schoenberg matrix at one degree."""
        B = self.model.schoenberg_matrix(degree)
        return factor_schoenberg_matrix(B, degree=degree).matrix

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
    if points.ndim != 2 or points.shape[1] != d + 1:
        raise SimulationError(
            f"points must be rows of {d + 1} coordinates for the {d}-sphere, "
            f"got shape {points.shape}"
        )
    if points.shape[0] == 0:
        raise SimulationError("at least one point is required")
    if not np.all(np.isfinite(points)):
        raise SimulationError("points must have finite coordinates")
    norms = np.sqrt(np.einsum("ij,ij->i", points, points))
    if np.max(np.abs(norms - 1.0)) > 1e-12:
        raise SimulationError("points must have unit norm within 1e-12")
    return points


def geodesic(x1, x2) -> float:
    """Great-circle angle arccos(x1.x2), with the product clamped to [-1, 1]."""
    dot = float(np.dot(np.asarray(x1, float), np.asarray(x2, float)))
    return float(np.arccos(min(1.0, max(-1.0, dot))))


def sample_pole(d: int, rng, size=None):
    """Uniform draw(s) on the d-sphere: normalized standard normal vectors;
    degenerate near-zero norms are redrawn.  One pole (size None) is the
    row of a batch of one."""
    if d < 1:
        raise ValueError("sphere dimension must be >= 1")
    v = rng.normal(size=(1 if size is None else int(size), d + 1))
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


# m waves as arrays: signs of +-1, poles (m, d+1), int64 degrees and 0-based
# factor-column components (None for a scalar model)
_Plan = namedtuple("_Plan", "signs poles degrees components")


def _draw_plan(config: SimulationConfig) -> _Plan:
    """The waves of simulate: wave idx is draw_wave(config,
    wave_rng(config.seed, idx)) for idx < config.L, drawn in two steps.

    First each wave's stream is read in draw_wave's order: sign, the pole's
    normals, one row of the degree law's uniforms (law._row_width of them,
    one draw attempt), then the component.  The streams come from one Philox
    that is re-keyed for each wave rather than built anew (building one
    costs about as much as the draws and seeds an entropy SeedSequence that
    the key then replaces): wave idx starts from the state a fresh
    wave_rng(seed, idx) has, the first wave's state with the key's index
    word set to idx, zero counter and an empty buffer, with no half-used
    32-bit word, so no random bits carry over from the previous wave.

    Then one pass over the plan computes the pole norms and the degrees, the
    doubles sample_pole and law.sample compute for one wave.  A wave whose
    pole norm is below 1e-150 or whose draw attempt was rejected reads more
    of its stream in draw_wave; it is redrawn whole by draw_wave from its
    fresh state, into its rows of the arrays."""
    L, p = config.L, config.p
    law = config.degrees
    rng = wave_rng(config.seed, 0)
    fresh = rng.bit_generator.state
    key = fresh["state"]["key"]
    signs = np.empty(L, dtype=np.int64)
    poles = np.empty((L, config.d + 1))
    uniforms = np.empty((L, law._row_width))
    components = np.empty(L, dtype=np.int64) if p > 1 else None
    for idx in range(L):
        key[1] = idx
        rng.bit_generator.state = fresh
        signs[idx] = rng.integers(0, 2)
        poles[idx] = rng.normal(size=config.d + 1)
        rng.random(out=uniforms[idx])
        if p > 1:
            components[idx] = rng.integers(0, p)
    signs = signs * 2 - 1
    norms = np.sqrt(np.add.reduce(poles * poles, axis=1))
    degrees, accepted = law._row_degrees(uniforms)
    degrees = law._int64(degrees)
    redraw = np.flatnonzero(~accepted | (norms < 1e-150)).tolist()
    norms[redraw] = 1.0
    poles /= norms[:, None]
    for idx in redraw:
        key[1] = idx
        rng.bit_generator.state = fresh
        wave = draw_wave(config, rng)
        signs[idx], poles[idx], degrees[idx] = wave.epsilon, wave.pole, wave.degree
        if p > 1:
            components[idx] = wave.component
    return _Plan(signs, poles, degrees, components)


def _column_limit(npts: int) -> int:
    """Highest degree of a Fourier table on npts points: m + 1 <= npts for
    its 5-smooth m >= 16n, i.e. 16n <= the largest 5-smooth number
    <= npts - 1."""
    return fft.prev_fast_len(max(npts - 1, 1), real=True) // NODES_PER_DEGREE


def _recurrence_tail(lam: float, degree: int, weight, t: np.ndarray, count: int) -> np.ndarray:
    """weight * G_k(t) for the last count <= 2 degrees k <= degree, shape
    (count, npts), by the recurrence over tiles of POINT_BLOCK points; it
    keeps no per-degree state, so a heavy degree costs no memory.  A larger
    count would read rows that _recurrence has overwritten: it reuses each
    yielded buffer two steps later."""
    out = np.empty((count, t.size))
    for s in range(0, t.size, POINT_BLOCK):
        block = slice(s, s + POINT_BLOCK)
        tail = deque(islice(_recurrence(lam, t[block], weight), degree + 1), maxlen=count)
        for row, g in zip(out, tail):
            row[block] = g
    return out


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
    prev, f = _recurrence_tail(lam, n, weight, t, 2)
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


def _fourier_node_count(degree: int) -> int:
    """Intervals of a Fourier table: the smallest m >= 16n whose transform
    length 2m is a fast FFT length (m 5-smooth), so a prime-heavy 16n does
    not cost ten times as much."""
    return fft.next_fast_len(NODES_PER_DEGREE * degree, real=True)


def _alphas(lam: float, degree: int) -> np.ndarray:
    """alpha_k = (lam)_k / k! for k = 0 .. degree in long double, by one
    cumulative product, whose rounding stays far below one double ulp at
    n = 1e5 (gammaln differences lose 1.4e-10 there).  The product runs in
    order, so a longer table has the same leading entries."""
    ratio = np.empty(degree + 1, dtype=np.longdouble)
    ratio[0] = 1.0
    np.add(np.arange(degree, dtype=np.longdouble), lam, out=ratio[1:])
    ratio[1:] /= np.arange(1, degree + 1)
    return np.cumprod(ratio, out=ratio)


def _cosine_coefficients(alpha: np.ndarray, degree, weight, k) -> np.ndarray:
    """weight * alpha_k * alpha_{degree-k} rounded to double, elementwise over
    broadcast arrays: the coefficient of cos((n - 2k) theta) in weight *
    G_n(cos theta), G_n(cos theta) = sum_k alpha_k alpha_{n-k} cos((n-2k)
    theta) (Szego, Orthogonal Polynomials, eq. 4.9.19), where the pair k and
    n - k share each frequency but n/2.  Every coefficient has the weight's
    sign.  The Fourier tables (weight w) and the series rows (weight 1 or 2)
    both take their coefficients from here."""
    return (weight * alpha[k] * alpha[degree - k]).astype(float)


def _fourier_nodes(lam: float, degree: int, weight: float, m: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f(theta) = weight * G_degree(cos theta) and its first two theta
    derivatives at theta_j = pi j / m, j = 0 .. m, for degree < m.

    The cosine series of _cosine_coefficients makes f and f'' one DCT-I of
    a stacked pair and f' one DST-I on the interior nodes (f' = 0 at the
    poles): O(m log m), against n recurrence steps per node.  As every
    coefficient has the weight's sign, the transforms round to about
    eps log2(m) of the amplitude |weight| G_n(1)."""
    n = degree
    freq = np.arange(n, -1, -2)                 # n - 2k for k = 0 .. n // 2
    coef = _cosine_coefficients(_alphas(lam, n), n, weight, np.arange(freq.size))
    # DCT-I weighs x_0 once and x_1 .. x_{m-1} twice: the cos(0) term is
    # alpha_{n/2}^2, every other frequency carries the pair k and n - k
    x = np.zeros((2, m + 1))
    x[0, freq] = coef
    x[1, freq] = -(freq * freq) * coef
    f, d2 = fft.dct(x, type=1, overwrite_x=True)
    positive = freq[: (n + 1) // 2]
    s = np.zeros(m - 1)
    s[positive - 1] = -positive * coef[: positive.size]
    d1 = np.zeros(m + 1)
    d1[1:-1] = fft.dst(s, type=1, overwrite_x=True)
    return f, d1, d2


def _profile_table(lam: float, degree: int, weight: float) -> tuple[np.ndarray, float]:
    """Quintic Hermite coefficients of weight * G_degree(cos theta) on the
    first m // 2 + 1 of m uniform intervals of [0, pi], all theta <= pi/2
    reaches, lowest power first in the local coordinate u in [0, 1), and
    the scale m / pi from theta to u.

    For lam <= FOURIER_MAX_LAM (d <= 3) the node values come from the
    Fourier series, O(n log n), on m = _fourier_node_count(n) >= 16n
    intervals.  Above it they come from the exact recurrence, O(n^2), on
    m = 16n (the nodes those intervals need): all Fourier coefficients are
    positive, so the transforms' rounding is relative to the amplitude
    G_n(1), which outgrows the wave's RMS with the dimension (2.3e-7 of it
    at d = 4, 3.6e-3 at d = 8, n = 1000)."""
    if lam <= FOURIER_MAX_LAM:
        m = _fourier_node_count(degree)
        f, d1, d2 = _fourier_nodes(lam, degree, weight, m)
    else:
        m = NODES_PER_DEGREE * degree
        theta = np.linspace(0.0, np.pi, m + 1)[: m // 2 + 2]
        f, d1, d2 = _profile_nodes(lam, degree, weight, theta)
    k = m // 2 + 1
    h = np.pi / m
    f0, f1 = f[:k], f[1 : k + 1]
    D0, D1 = h * d1[:k], h * d1[1 : k + 1]
    E0, E1 = (h * h) * d2[:k], (h * h) * d2[1 : k + 1]
    return np.stack([f0, D0, 0.5 * E0,
                     10.0 * (f1 - f0) - 6.0 * D0 - 4.0 * D1 - 1.5 * E0 + 0.5 * E1,
                     15.0 * (f0 - f1) + 8.0 * D0 + 7.0 * D1 + 1.5 * E0 - E1,
                     6.0 * (f1 - f0) - 3.0 * (D0 + D1) - 0.5 * (E0 - E1)]), m / np.pi


def _interpolate(table: np.ndarray, scale: float, t: np.ndarray) -> np.ndarray:
    """Evaluate a _profile_table at theta = arccos(t) for t in [0, 1] (the
    table row folds t to |t|) by Horner's rule.  Interval indices lie in
    [0, m // 2]; clip mode only skips the bounds check."""
    u = np.arccos(t)
    u *= scale
    j = u.astype(np.intp)
    u -= j
    out = table[5].take(j, mode="clip")
    for row in table[4::-1]:
        out *= u
        out += row.take(j, mode="clip")
    return out


def _wave_weights(model, law, degrees) -> np.ndarray:
    """Weights of waves of the given degrees under a model and a degree law,
    vectorized: sqrt(b_k (2k+d-1) / (a_k (d-1))) on d >= 2 and
    sqrt(c_k b_k / a_k) on the circle (c_0 = 1, c_k = 2), where a_k is the
    law's mass and b_k the Schoenberg coefficient, or p for multivariate
    models (whose factor column is applied by the caller).  Computed in log
    space; a degree of zero probability is rejected."""
    kappas = np.asarray(degrees, dtype=np.int64)
    outside = ~np.asarray(law.in_support(kappas), dtype=bool)
    if outside.any():
        raise SimulationError(
            f"degree {kappas[outside][0]} has zero probability under the degree law")
    d, p = model.d, model.p
    log_a = law.log_pmf(kappas)
    log_b = model.log_schoenberg_coeff(kappas) if p == 1 else np.log(p)
    if d == 1:
        log_c = np.where(kappas == 0, 0.0, np.log(2.0))
        return np.exp(0.5 * (log_c + log_b - log_a))
    log_w2 = log_b + np.log(2.0 * kappas + d - 1.0) - log_a - np.log(d - 1.0)
    return np.exp(0.5 * log_w2)


def _fold(degree: int, profile, t: np.ndarray) -> np.ndarray:
    """A row f(t) = (-1)^degree f(-t) from its profile on [0, 1]:
    profile(|t|), negated where t < 0 for an odd degree.  Negation is exact,
    so the row keeps that parity bit for bit for t != 0 (t = -0.0 reads
    profile(0)), whatever the profile rounds."""
    x = profile(np.abs(t))
    if degree % 2:
        np.negative(x, out=x, where=t < 0.0)
    return x


def _chebyshev_row(lam: float, degree: int, weight: float, t: np.ndarray) -> np.ndarray:
    """The profile weight * G_degree^1(t) on the 3-sphere (lam = 1) for t in
    [0, 1] (the row _fold-s t to |t|), from the closed form G_n^1(cos theta)
    = U_n(cos theta) = sin((n+1) theta) / sin(theta): O(npts) at any degree,
    with no table and no recurrence.  As theta <= pi/2, the rounding of
    (n+1) theta is never divided by a small sin(theta) next to t = -1;
    where sin(theta) = 0 the value is the limit n + 1.

    Error, relative to the amplitude (n+1) |weight|, with every elementary
    function within one ulp: an arccos error of eps theta moves U_n by up
    to (pi/2) eps, the rounding of (n+1) theta by (pi/4) eps (both worst
    at theta = pi/2, where theta / sin(theta) = pi/2), the two sines by eps
    each, the division and the weight by eps/2 each: 5.4 eps in all, so
    CHEBYSHEV_ERROR_BOUND = 6 eps."""
    k1 = degree + 1.0
    theta = np.arccos(t)
    sin = np.sin(theta)
    x = np.sin(theta * k1)
    pole = sin == 0.0
    if pole.any():
        sin[pole] = 1.0
        x[pole] = k1
    x /= sin
    x *= weight
    return x


@cache
def _series_alphas(lam: float) -> np.ndarray:
    """_alphas(lam, SERIES_MAX_DEGREE), read-only and kept: one table
    serves every series row of lam, so a row builds none of its own."""
    alpha = _alphas(lam, SERIES_MAX_DEGREE)
    alpha.flags.writeable = False
    return alpha


# the unit-weight Chebyshev coefficients of series rows of one parity,
# sorted by non-increasing degree, and the rows' weights, as _clenshaw takes
# them (see _series_coefficients)
_Series = namedtuple("_Series", "odd c0 blocks weights")


def _series_coefficients(lam: float, degrees: np.ndarray, weights: np.ndarray) -> _Series:
    """The coefficients of _clenshaw for rows of one parity, sorted by
    non-increasing degree: c0 (rows, 1) and an iterator over runs of
    indices i from K_0 down to 1 of (the number of rows with K >= i for
    each i, column block (run, rows, 1) of their c_i), all of unit weight,
    and the weight column (rows, 1).  The c_i depend on (lam, n) only and
    are computed once per distinct degree, in blocks of at most POINT_BLOCK
    entries; entries of rows with K < i are never read."""
    K = degrees // 2
    alpha = _series_alphas(lam)
    odd = bool(degrees[0] % 2)
    c0 = _cosine_coefficients(alpha, degrees, 2.0 if odd else 1.0, K)
    first = np.ones(degrees.size, dtype=bool)
    first[1:] = degrees[1:] != degrees[:-1]
    kp, n = K[first], degrees[first]
    distinct = np.cumsum(first) - 1
    run = max(1, POINT_BLOCK // degrees.size)

    def blocks():
        for hi in range(int(K[0]), 0, -run):
            i = np.arange(hi, max(hi - run, 0), -1)
            block = _cosine_coefficients(alpha, n, 2.0, np.maximum(kp - i[:, None], 0))
            yield np.searchsorted(-K, -i, side="right").tolist(), block[:, distinct, None]

    return _Series(odd, c0[:, None], blocks(), weights[:, None])


def _clenshaw(series: _Series, t: np.ndarray) -> np.ndarray:
    """weights_r * G_{n_r}^lam(t_r) for the rows r of t, shape (rows, npts),
    from their _series_coefficients, by Clenshaw's recurrence on the
    unit-weight polynomial, times the row's weight once at the end.

    With p = n mod 2 and K = (n - p) / 2, G_n(t) = sum_{i=0}^K c_i
    T_{p+2i}(t), where c_i is twice the _cosine_coefficients entry
    k = K - i of weight 1, save c_0 = alpha_K^2 when p = 0.  T_{p+2i} satisfy
    T_{p+2i+2} = y T_{p+2i} - T_{p+2i-2} in y = 4t^2 - 2, so from
    b_{K+1} = b_{K+2} = 0, b_i = y b_{i+1} - b_{i+2} + c_i for i = K .. 1,
    and the sum is B_0 (c_0 - b_2) + B_1 b_1 with B_0, B_1 = 1, y/2 for
    even n and t, t (y - 1) for odd n: three passes per two degrees, where
    the recurrence takes four per degree.  A row joins the sweep as i falls
    to its own K (its b_{i+1} and b_{i+2} are zeroed then): every step is
    elementwise, so a row's doubles depend neither on the other rows nor on
    the tiles of t.  With unit weights |b_i| <= (K+1) (n+1) stays far inside
    the double range; a weighted row overflows only in the final product,
    where its value does."""
    y = np.multiply(t, t)
    y *= 4.0
    y -= 2.0
    full = [np.empty_like(t) for _ in range(3)]     # b_i, b_{i+1}, b_{i+2} in rotation
    a = 0
    for joined, column in series.blocks:
        for j, count in enumerate(joined):
            if count != a:
                full[1][a:count] = 0.0
                full[2][a:count] = 0.0
                a = count
                yv = y[:a]
                view = [b[:a] for b in full]
            new, b1, b2 = view
            np.multiply(yv, b1, out=new)
            new -= b2
            new += column[j, :a]
            full = [full[2], full[0], full[1]]
            view = [b2, new, b1]
    _, b1, b2 = full
    b1[a:] = 0.0                                    # rows of K = 0
    b2[a:] = 0.0
    out = np.subtract(series.c0, b2, out=b2)
    if series.odd:
        out *= t
        y -= 1.0
        y *= t
    else:
        y *= 0.5
    y *= b1
    out += y
    out *= series.weights
    return out


def _series_row(lam: float, degree: int, weight: float):
    """The series method's row function: the _series_coefficients of one
    row, then _clenshaw on t.  Its c_i for i = K .. 1 are the entries k = 0
    .. K-1 of _cosine_coefficients of weight 2, one product of two slices
    of the alpha table in the same long-double order, so the doubles are
    those of _series_coefficients, with none of its dedupe and search."""
    alpha = _series_alphas(lam)
    K, odd = divmod(degree, 2)
    c0 = ((2.0 if odd else 1.0) * alpha[K] * alpha[degree - K]).astype(float)
    column = (2.0 * alpha[:K] * alpha[degree : degree - K : -1]).astype(float)
    series = _Series(bool(odd), np.full((1, 1), c0), [([1] * K, column[:, None, None])],
                     np.full((1, 1), weight))
    return lambda t: _clenshaw(series, t[None])[0]


def _series_cost(lam: float, degrees: np.ndarray, npts: int) -> np.ndarray:
    """The series of _clenshaw: (n + SERIES_POINT_COST) / 2 steps per point,
    on d <= 3 for degrees SERIES_MIN_DEGREE to SERIES_MAX_DEGREE."""
    takes = ((degrees >= SERIES_MIN_DEGREE) & (degrees <= SERIES_MAX_DEGREE)
             & (lam <= FOURIER_MAX_LAM))
    return np.where(takes, np.add(degrees, float(SERIES_POINT_COST)) * (0.5 * npts), np.inf)


def _table_cost(lam: float, degrees: np.ndarray, npts: int) -> np.ndarray:
    """A table plus INTERP_STEPS per point.  On d <= 3 a Fourier table,
    FOURIER_TABLE_COST + FOURIER_NODE_COST per node on 16n nodes, with no
    more columns than points: degrees up to _column_limit(npts).  Above, a
    recurrence table: n + 1 steps over 16n nodes and TABLE_STEP_COST of
    fixed overhead per step."""
    n = degrees.astype(float)
    if lam <= FOURIER_MAX_LAM:
        cost = (FOURIER_TABLE_COST + (FOURIER_NODE_COST * NODES_PER_DEGREE) * n
                + INTERP_STEPS * npts)
        return np.where(degrees <= _column_limit(npts), cost, np.inf)
    return (n + 1.0) * (NODES_PER_DEGREE * n + TABLE_STEP_COST) + INTERP_STEPS * npts


def _closed_cost(lam: float, degrees: np.ndarray, npts: int) -> np.ndarray:
    """The closed form of _chebyshev_row: CHEBYSHEV_ROW_COST per row and
    CHEBYSHEV_POINT_COST per point, on the 3-sphere for the degrees above
    _column_limit(npts), which no Fourier table holds."""
    takes = (degrees > _column_limit(npts)) & (lam == 1.0)
    return np.where(takes, float(CHEBYSHEV_ROW_COST + CHEBYSHEV_POINT_COST * npts), np.inf)


def _quadratic_bound(degrees, *_) -> np.ndarray:
    """SERIES_ERROR_BOUND (n+1)^2: the series' bound, which the exact
    recurrence keeps too (measured at most 0.11 eps (n+1)^2 near t = +-1,
    lam 1/2 to 63.5, n up to 5000)."""
    return SERIES_ERROR_BOUND * np.square(np.add(degrees, 1.0))


def _affine_bound(n, d: int, k: int) -> float:
    """gamma_{k+d+4} = j eps / (1 - j eps), j = k + d + 4: the bound of a
    run's affine map of k rows on the d-sphere, relative to the sum of their
    amplitudes |w f| G_n(1), G_0(1) = 1 and G_1(1) = c (see _affine_maps).
    A degree-1 row's share of A + x V passes through at most k + d + 4
    roundings: c w, its factor entry and the pole coordinate (3), the
    sequential sum of the run's k terms (k - 1), the (d+1)-term product by
    x in any order (d + 1) and the add of A (1); a degree-0 row's through
    fewer.  sum_j |x_j pole_j| <= |x| |pole| <= 1 + 2e-12 for checked points
    and poles, which eps in place of the unit roundoff eps / 2 covers."""
    j = (k + d + 4) * np.finfo(float).eps
    return j / (1.0 - j)


# the profile methods.  Each has its row function (lam, degree, weight) -> a
# function of clipped projections t giving weight * G_degree(t) (None for
# the affine map, which _wave_sums evaluates per run); its cost (lam, int64
# degrees, npts) in recurrence steps at one point, inf where it cannot take
# a row (None for the two that _profile_methods gives whatever the cost);
# and its error bound (n, d, k) as a function of the degrees n, relative to
# the amplitude |w| G_n(1) and non-decreasing in n (the affine map's depends
# on the dimension d and the most affine rows k in one run instead).
# Degrees reach 2^63 - 1, so the costs test eligibility in int64 and count
# in float64, exact integers or halves below 2^53 wherever two can tie (npts
# below 9e7).  A row function does its per-wave work (a table) once; its t
# function is elementwise, so a wave may be evaluated whole or tile by tile
# with the same doubles.  Every row function is exactly odd or even, f(-t) =
# (-1)^n f(t) in doubles for t != 0, so a row may be mirrored (see
# _profiles): the exact recurrence and the series negate exactly under
# t -> -t, and the circle, table and closed-form rows are _fold-ed.  A
# row's method code is its index here.
_Method = namedtuple("_Method", "name row cost bound")
AFFINE, CIRCLE, EXACT, TABLE, CLOSED, SERIES = range(6)
_METHODS = (
    _Method("affine", None, None, _affine_bound),
    # (1.5 pi n + 1.5) eps <= 5 eps (n+1) of |w|: arccos within one ulp moves
    # n theta by up to pi n eps and its rounding by pi n eps / 2; cos and the
    # weight round within eps and eps / 2 (measured about 2 eps (n+1) up to
    # n = 1e9).  From n = 2^53 on, where n itself rounds, the bound exceeds 2
    _Method("circle", lambda lam, n, w: partial(_fold, n, lambda t: w * np.cos(n * np.arccos(t))),
            None, lambda n, *_: 5.0 * np.finfo(float).eps * np.add(n, 1.0)),
    _Method("exact", lambda lam, n, w: lambda t: _recurrence_tail(lam, n, w, t, 1)[0],
            lambda lam, n, npts: np.add(n, 1.0) * npts, _quadratic_bound),
    _Method("table", lambda lam, n, w: partial(
        _fold, n, partial(_interpolate, *_profile_table(lam, n, w))),
            _table_cost, lambda n, *_: PROFILE_ERROR_BOUND),
    _Method("closed", lambda lam, n, w: partial(_fold, n, partial(_chebyshev_row, lam, n, w)),
            _closed_cost, lambda n, *_: CHEBYSHEV_ERROR_BOUND),
    _Method("series", _series_row, _series_cost, _quadratic_bound),
)


def _profile_methods(d: int, degrees, npts: int) -> np.ndarray:
    """Each row's profile method on npts points, as a code into _METHODS:
    the affine map for degrees 0 and 1 on every d, the circle cosine for the
    others on d = 1, else the cheapest method by cost.  Of equal costs the
    first of exact, series, table and closed wins."""
    degrees = np.asarray(degrees)
    if d == 1:
        return np.where(degrees <= 1, AFFINE, CIRCLE)
    lam = 0.5 * (d - 1)
    codes, best = EXACT, _METHODS[EXACT].cost(lam, degrees, npts)
    for code in (SERIES, TABLE, CLOSED):
        cost = _METHODS[code].cost(lam, degrees, npts)
        cheaper = cost < best
        codes = np.where(cheaper, code, codes)
        best = np.where(cheaper, cost, best)
    return np.where(degrees <= 1, AFFINE, codes)


def _project(points: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """Clipped projections points . pole of each pole, shape poles.shape[:-1]
    + (npts,): one matrix-vector product per pole over all the points, the
    doubles of points @ pole, clipped to [-1, 1]."""
    t = np.matmul(points, poles[..., None])[..., 0]
    return np.clip(t, -1.0, 1.0, out=t)


# points as exact antipodal pairs: near (npts/2,) indexes the earlier point
# of each pair, ascending, and point q is flip[q] * points[near[source[q]]],
# flip[q] -1.0 on the later point of its pair and 1.0 on the earlier
_Pairs = namedtuple("_Pairs", "near source flip")


def _antipodal_pairs(points: np.ndarray) -> _Pairs | None:
    """The checked points as exact antipodal pairs, or None when they do
    not pair up so: an odd count, or a column whose max is not exactly
    -min, fails before any sort.  Antipodes tie in |x . r| for a fixed r
    (the product negates exactly), so one sort of that key puts every pair
    side by side; the pairing is then checked coordinate by coordinate,
    x == -y.  Zeros' signs may differ within a pair: they move no
    projection but an exact zero one, which _profiles does not mirror.  A
    tie of the key between two pairs can only make the check fail."""
    npts = points.shape[0]
    if npts % 2 or any(x.max() != -x.min() for x in points.T[::-1]):  # slices fix the last one
        return None
    order = np.argsort(np.abs(points @ (1.0 / (np.arange(points.shape[1]) + np.pi))))
    a, b = order[0::2], order[1::2]
    if not all(np.array_equal(x[a], -x[b]) for x in points.T):     # column by column: faster
        return None
    partner = np.empty(npts, dtype=np.intp)
    partner[a], partner[b] = b, a
    near = np.flatnonzero(partner > np.arange(npts))
    source = np.empty(npts, dtype=np.intp)
    source[near] = source[partner[near]] = np.arange(near.size)
    flip = np.ones(npts)
    flip[partner[near]] = -1.0
    return _Pairs(near, source, flip)


def _affine_slope(d: int) -> float:
    """c = G_1(1): G_1(t) = 2 lam t = (d - 1) t on d >= 2, and t on the circle."""
    return float(max(d - 1, 1))


def _affine_maps(d: int, degrees: np.ndarray, points: np.ndarray, poles: np.ndarray,
                 signed: np.ndarray, factors, run: int, sums: np.ndarray) -> None:
    """Add to each run's sums[r], shape (p, npts), the affine map its rows of
    degree 0 and 1 and non-zero weight add up to, if it has any.

    At the point x the rows sum to A + x V: A (p) sums signed_i f_i over the
    degree-0 rows and V (d+1 by p) c signed_i pole_i f_i over the degree-1
    rows, with c = _affine_slope(d) and f_i the factor row (1 for p = 1).
    Each row's terms c w, (c w) f and ((c w) f) pole_j, and w f, are formed
    with zeros for the run's other rows, laid out position-major so that one
    reduction over the first axis sums each run's in wave order; then one
    product over all points, never tiled, plus A gives the map (error bound
    _affine_bound).  The products of runs are stacked up to POINT_BLOCK
    values at a time, each the doubles of its own call, so that no second
    buffer the size of sums is made.  Both forms of
    _wave_sums call this, so a run's map depends neither on the form nor on
    the tiles."""
    live = signed != 0.0
    one, zero = (degrees == 1) & live, (degrees == 0) & live
    runs = np.flatnonzero((one | zero).reshape(-1, run).any(axis=1))
    slope = (signed * np.where(one, _affine_slope(d), 0.0))[:, None]
    level = (signed * zero)[:, None]
    if factors is not None:
        slope, level = slope * factors, level * factors
    p = slope.shape[1]

    def by_position(rows):              # (run, runs, ...): position j of every run
        return rows.reshape(-1, run, *rows.shape[1:]).swapaxes(0, 1)

    terms = np.empty((run, sums.shape[0], p, poles.shape[1] + 1))  # x_0 .. x_d, 1
    np.multiply(by_position(slope)[..., None], by_position(poles)[:, :, None, :],
                out=terms[..., :-1])
    terms[..., -1] = by_position(level)
    maps = np.add.reduce(terms, axis=0)[runs]
    height = max(1, POINT_BLOCK // (p * points.shape[0]))
    for lo in range(0, runs.size, height):
        product = np.matmul(maps[lo : lo + height, :, :-1], points.T)
        product += maps[lo : lo + height, :, -1:]
        sums[runs[lo : lo + height]] += product


def _profiles(lam: float, codes: np.ndarray, degrees: np.ndarray, points: np.ndarray,
              poles: np.ndarray, signed: np.ndarray, rows: np.ndarray, pairs):
    """(band, values) for the given rows, none affine, values of shape
    (band size, npts), or (row, values) of shape (npts,) for a row
    evaluated alone.  On at most POINT_BLOCK // 2 points, two or more exact
    rows share a degree-sorted recurrence over bands of POINT_BLOCK // k
    rows, k the points evaluated, its rows dropped at their own distinct
    degrees, and two or more series rows share _clenshaw over bands of one
    parity, its rows joining at their own K; each band is projected when
    its sweep reaches it.  Every other row, and on more points every row in
    row order, is projected and evaluated alone over POINT_BLOCK tiles.

    With pairs, the _antipodal_pairs of the points, a band is projected
    onto and evaluated at the earlier point of each pair only, and the
    later point takes (-1)^n times that value, the doubles of evaluating
    it: the projection, the clip and every row function negate exactly
    under t -> -t.  A band with an exact zero among those projections,
    whose sign at the later point is not the negation's, is evaluated at
    all the points instead."""
    npts = points.shape[0]
    evaluated = points if pairs is None else points[pairs.near]
    height = POINT_BLOCK // evaluated.shape[0]

    def project(band):
        t = _project(evaluated, poles[band])
        return t if pairs is None or t.all() else _project(points, poles[band])

    def spread(n, values):          # rows of degree n's parity at the evaluated points
        if values.shape[-1] == npts:
            return values
        values = values.take(pairs.source, axis=-1)
        if n % 2:
            values *= pairs.flip
        return values

    exact, series = (rows[codes[rows] == code] for code in (EXACT, SERIES))
    shared = [code for code, group in ((EXACT, exact), (SERIES, series))
              if group.size > 1 and npts <= POINT_BLOCK // 2]
    alone = np.ones(len(_METHODS), dtype=bool)
    alone[shared] = False
    rest = rows[alone[codes[rows]]]
    for i, code, n, w in zip(rest.tolist(), codes[rest].tolist(), degrees[rest].tolist(),
                             signed[rest].tolist()):
        t, row = project(i), _METHODS[code].row(lam, n, w)
        tiles = [row(t[s : s + POINT_BLOCK]) for s in range(0, t.size, POINT_BLOCK)]
        yield i, spread(n, tiles[0] if len(tiles) == 1 else np.concatenate(tiles))
    if EXACT in shared:
        order = exact[np.argsort(degrees[exact])[::-1]]
        for r0 in range(0, exact.size, height):
            band = order[r0 : r0 + height]
            kb = degrees[band]                              # non-increasing
            cuts = [0, *(np.flatnonzero(kb[1:] != kb[:-1]) + 1).tolist(), band.size]
            # (n, lo, hi) by ascending degree n: band[lo:hi] end at degree n,
            # and from degree n + 1 on the recurrence keeps the leading lo rows
            ends = [(int(kb[lo]), lo, hi) for lo, hi in reversed(list(pairwise(cuts)))]
            sweep = _recurrence(lam, project(band), signed[band, None],
                                {n + 1: lo for n, lo, _ in ends})
            k = -1
            for n, lo, hi in ends:
                yield band[lo:hi], spread(n, next(islice(sweep, n - k - 1, None))[lo:hi])
                k = n
    if SERIES in shared:
        # even degrees first, each parity by non-increasing degree
        order = series[np.lexsort((-degrees[series], degrees[series] % 2))]
        even = np.count_nonzero(degrees[series] % 2 == 0)
        for part in (order[:even], order[even:]):
            for r0 in range(0, part.size, height):
                band = part[r0 : r0 + height]
                yield band, spread(degrees[band[0]], _clenshaw(
                    _series_coefficients(lam, degrees[band], signed[band]), project(band)))


def _wave_sums(d: int, degrees: np.ndarray, points: np.ndarray, poles: np.ndarray,
               signed: np.ndarray, factors, run: int, first: int = 0, pairs=None) -> np.ndarray:
    """Sums of consecutive runs of `run` waves, shape (m // run, p, npts):
    wave i is signed_i * G_{degrees_i}^((d-1)/2)(t_i) at the projections t_i
    of checked points onto poles[i], times its factor row when factors is
    not None (else p = 1).  Every run starts from -0.0, adds the affine map
    of its rows of degree 0 and 1 if it has any (_affine_maps), then adds
    its other waves in wave order, each by its _METHODS row function at the
    clipped t_i, whatever the form below or the tiles.  As x + (-0.0) is x
    for every double x, a run's sum has the doubles of its map or its first
    wave followed by the rest, zeros' signs included.  A wave of weight
    zero adds nothing: it is neither evaluated nor part of its run's map.
    A non-finite wave value raises with its index counted from first
    (_wave_coefficients checks the affine rows' before any point work).

    The other rows' values come from _profiles, mirrored when pairs (the
    points' _antipodal_pairs) is given: above POINT_BLOCK // 2 points one
    at a time, each checked, times its factor row and added to its run's
    sum; else all first, -0.0 for the idle rows, and a run starts from its
    first position (in place for a run of one wave), adds its map and each
    later position not idle in every run, and is then checked."""
    m, npts = degrees.size, points.shape[0]
    p = 1 if factors is None else factors.shape[1]
    codes = _profile_methods(d, degrees, npts)
    idle = (codes == AFFINE) | (signed == 0.0)
    rows = _profiles(0.5 * (d - 1), codes, degrees, points, poles, signed, np.flatnonzero(~idle),
                     pairs)
    if npts > POINT_BLOCK // 2:
        sums = np.full((m // run, p, npts), -0.0)
        _affine_maps(d, degrees, points, poles, signed, factors, run, sums)
        for i, vals in rows:
            vals = vals if factors is None else factors[i, :, None] * vals
            _raise_first_non_finite(vals[None], first + i)
            sums[i // run] += vals
        return sums

    out = np.empty((m, npts))
    out[idle] = -0.0
    for band, values in rows:
        out[band] = values
    values = out[:, None, :] if factors is None else factors[:, :, None] * out[:, None, :]
    values[idle] = -0.0                 # again: f * -0.0 is +0.0 for f < 0
    parts = values.reshape(m // run, run, p, npts)
    sums = parts[:, 0] if run == 1 else parts[:, 0].copy()
    _affine_maps(d, degrees, points, poles, signed, factors, run, sums)
    # positions that hold an idle row in every run add -0.0 only
    for j in np.flatnonzero(~idle.reshape(-1, run)[:, 1:].all(axis=0)).tolist():
        sums += parts[:, j + 1]
    if not np.isfinite(sums).all():
        _raise_first_non_finite(values, first)  # a non-finite wave makes its run's sum so
    return sums


def _raise_first_non_finite(values: np.ndarray, first: int) -> None:
    """Raise for the first row of values with a non-finite entry, naming its
    wave index counted from first."""
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(np.argmin(finite.reshape(len(values), -1).all(axis=1)))
        raise SimulationError(f"non-finite wave values at wave index {first + bad}")


def _wave_coefficients(config: SimulationConfig, plan: _Plan, first: int = 0) -> tuple:
    """Signed weights of a plan's waves, and each wave's Schoenberg factor
    column as a row, shape (m, p), or None for a scalar model.  A weight
    that is not finite (one that overflows exp), or an affine row's
    coefficient that overflows (c w of a degree-1 row, where w is finite,
    and w or c w times the factor row), raises with its wave index counted
    from first, before any point work.  Each distinct degree's matrix is
    built once and factored once."""
    with np.errstate(over="ignore"):
        signed = plan.signs * _wave_weights(config.model, config.degrees, plan.degrees)
        coef = signed * np.where(plan.degrees == 1, _affine_slope(config.d), 1.0)
    _raise_first_non_finite(coef, first)
    if config.p == 1:
        return signed, None
    distinct, inverse = np.unique(plan.degrees, return_inverse=True)
    matrices = config.model.schoenberg_matrix(distinct)
    columns = np.stack([factor_schoenberg_matrix(B, degree=n).matrix.T
                        for B, n in zip(matrices, distinct)])
    factors = columns[inverse, plan.components]
    with np.errstate(over="ignore"):
        _raise_first_non_finite(np.where(plan.degrees[:, None] <= 1, coef[:, None] * factors, 0.0),
                                first)
    return signed, factors


def _wave_plan(wave: WaveParams, d: int) -> _Plan:
    """A public WaveParams on the d-sphere as a one-row plan, checked: a
    sign of +-1, a pole of d + 1 finite coordinates with unit norm within
    1e-12 (the rule of check_points), and a degree that is a non-negative
    integer within int64.  A component is read through _as_index
    (wave_eval_vector checks its range)."""
    if wave.epsilon not in (1, -1):
        raise SimulationError(f"wave sign must be +1 or -1, got {wave.epsilon!r}")
    pole = np.asarray(wave.pole, dtype=float)
    if pole.shape != (d + 1,) or not np.all(np.isfinite(pole)):
        raise SimulationError(f"wave pole must have {d + 1} finite coordinates for the "
                              f"{d}-sphere")
    if abs(np.sqrt(pole @ pole) - 1.0) > 1e-12:
        raise SimulationError("wave pole must have unit norm within 1e-12")
    degree = _as_index(wave.degree)
    if not 0 <= degree < 2**63:
        raise SimulationError(
            f"wave degree must be a non-negative integer within int64, got {wave.degree!r}")
    return _Plan(np.array([int(wave.epsilon)]), pole[None, :], np.array([degree], dtype=np.int64),
                 None if wave.component is None else np.array([_as_index(wave.component)]))


def _one_wave(wave: WaveParams, config: SimulationConfig, points) -> np.ndarray:
    """Values of one wave at unchecked points, shape (npts, p); a malformed
    wave fails before the points are read."""
    plan = _wave_plan(wave, config.d)
    points = check_points(points, config.d)
    signed, factors = _wave_coefficients(config, plan)
    return _wave_sums(config.d, plan.degrees, points, plan.poles, signed, factors, 1)[0].T


def wave_eval_scalar(wave: WaveParams, config: SimulationConfig, points) -> np.ndarray:
    """Values of one scalar wave at the given points."""
    if config.p != 1:
        raise SimulationError("scalar wave evaluation requires a univariate model")
    return _one_wave(wave, config, points)[:, 0]


def wave_eval_vector(wave: WaveParams, config: SimulationConfig, points) -> np.ndarray:
    """Values of one vector wave at the given points, shape (npts, p)."""
    p = config.p
    if p < 2:
        raise SimulationError("vector wave evaluation requires a multivariate model")
    if not 0 <= _as_index(wave.component) < p:
        raise SimulationError("wave component index out of range")
    return _one_wave(wave, config, points)


def simulate(config: SimulationConfig, points, n_threads: int | None = None) -> Realization:
    """Central-limit ensemble of config.L waves at the given points.

    Pure function of (config, points): rerunning with the same seed gives
    byte-identical values whether n_threads is None or any worker count.
    The whole wave plan (draws, weights, support and Schoenberg factor
    checks) comes first, so an invalid model fails before any point work.
    Wave idx is draw_wave(config, wave_rng(config.seed, idx)), drawn by
    _draw_plan.  Each group of WAVE_GROUP waves is one run of _wave_sums,
    which sums it in wave order, and each group sum is added in order as it
    is made.  The metadata records the profile error bound relative to a
    wave's amplitude, the largest _METHODS bound among the rows run, the
    drawn degrees' sum and largest value and the waves per method.
    """
    points = check_points(points, config.d)
    npts = points.shape[0]
    L = config.L
    plan = _draw_plan(config)
    signed, factors = _wave_coefficients(config, plan)
    pairs = _antipodal_pairs(points)
    errstate = np.geterr()          # a worker thread starts from numpy's defaults

    def group_sum(lo):
        group = slice(lo, lo + WAVE_GROUP)
        with np.errstate(**errstate):
            return _wave_sums(config.d, plan.degrees[group], points, plan.poles[group],
                              signed[group], None if factors is None else factors[group],
                              min(WAVE_GROUP, L - lo), lo, pairs)[0]

    values = np.zeros((config.p, npts))
    with ThreadPoolExecutor(n_threads) if (n_threads or 0) > 1 else nullcontext() as pool:
        for part in (pool.map if pool else map)(group_sum, range(0, L, WAVE_GROUP)):
            values += part
            del part        # else it lives on while the next group is summed
    values *= 1.0 / np.sqrt(L)
    kappas = plan.degrees.tolist()
    codes = _profile_methods(config.d, plan.degrees, npts)
    # each method's bound is largest at its highest degree, the affine map's
    # at the group with the most affine rows
    k = int(np.add.reduceat((codes == AFFINE).astype(np.int64), range(0, L, WAVE_GROUP)).max())
    bound = max(_METHODS[code].bound(plan.degrees[codes == code].max(), config.d, k)
                for code in np.unique(codes).tolist())
    metadata = {**config.metadata(), "profile_error_bound": float(bound),
                "degree_sum": sum(kappas), "degree_max": max(kappas),
                "profile_methods": dict(zip((method.name for method in _METHODS),
                                            np.bincount(codes, minlength=len(_METHODS)).tolist()))}
    return Realization(points=points, values=np.ascontiguousarray(values.T), metadata=metadata)


# ---------------------------------------------------------------------------
# many single waves at once (Monte Carlo validation machinery)
# ---------------------------------------------------------------------------

def _draw_waves(config: SimulationConfig, M: int, rng) -> _Plan:
    """M independent waves from the caller's stream.  Draw order: all signs,
    all poles, all degrees, then all components."""
    signs = rng.integers(0, 2, size=M) * 2 - 1
    poles = sample_pole(config.d, rng, size=M)
    degrees = config.degrees.sample(rng, size=M)
    components = rng.integers(0, config.p, size=M) if config.p > 1 else None
    return _Plan(signs, poles, degrees, components)


def _wave_count(M) -> int:
    """M read through _as_index, as L is: a non-negative integer, else
    SimulationError."""
    count = _as_index(M)
    if count < 0:
        raise SimulationError(f"M must be a non-negative integer, got {M!r}")
    return count


def _ensemble_sums(config: SimulationConfig, points, M: int, L: int, rng) -> np.ndarray:
    """M independent sums of L waves each at the points, shape (M, npts, p),
    with the draws of _draw_waves from the caller's stream; a sum is one run
    of L waves of _wave_sums.  Draws come in chunks capped by ENSEMBLE_BUDGET
    value doubles and ENSEMBLE_WAVE_CAP waves, summed in pieces of
    ENSEMBLE_PIECE doubles."""
    M = _wave_count(M)
    points = check_points(points, config.d)
    npts = points.shape[0]
    pairs = _antipodal_pairs(points)
    chunk = max(1, min(ENSEMBLE_BUDGET // max(1, L * npts * config.p), ENSEMBLE_WAVE_CAP // L))
    piece = max(1, ENSEMBLE_PIECE // max(1, L * npts * config.p))
    out = np.empty((M, npts, config.p))
    done = 0
    while done < M:
        m = min(chunk, M - done)
        plan = _draw_waves(config, m * L, rng)
        signed, factors = _wave_coefficients(config, plan, done * L)
        for lo in range(0, m, piece):
            w = slice(lo * L, min(lo + piece, m) * L)
            sums = _wave_sums(config.d, plan.degrees[w], points, plan.poles[w], signed[w],
                              None if factors is None else factors[w], L, done * L + w.start,
                              pairs)
            out[done + lo : done + lo + sums.shape[0]] = sums.transpose(0, 2, 1)
        done += m
    return out


def single_wave_values(config: SimulationConfig, points, M: int, rng) -> np.ndarray:
    """M independent single waves evaluated at the points, shape (M, npts, p).

    Same law as M runs of simulate with L=1 but vectorized across waves;
    meant for moment checks, where the caller owns the stream.
    """
    return _ensemble_sums(config, points, M, 1, rng)


def simulate_ensemble(config: SimulationConfig, points, M: int, rng) -> np.ndarray:
    """M independent realizations of the L-wave ensemble, shape (M, npts, p).

    Statistically identical to M calls of simulate with fresh seeds, with the
    draws of single_wave_values (_ensemble_sums with L waves a realization).
    """
    out = _ensemble_sums(config, points, M, config.L, rng)
    out *= 1.0 / np.sqrt(config.L)
    return out


def clt_marginal_samples(config: SimulationConfig, point, M: int, rng) -> np.ndarray:
    """M draws of the standardizable ensemble value at a single point (p=1)."""
    if config.p != 1:
        raise SimulationError("marginal sampling is defined for scalar models")
    return simulate_ensemble(config, np.atleast_2d(point), _wave_count(M), rng)[:, 0, 0]
