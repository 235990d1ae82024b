"""Independent reference for simulated fields: scipy Gegenbauer sums.

The wave plan is replayed from the public counter-based streams
(`draw_wave(config, wave_rng(seed, i))`); each wave is then evaluated with
`scipy.special.eval_gegenbauer` (a separate implementation from the
library's recurrence) and the public `log_pmf`, `log_schoenberg_coeff` and
`factor_columns`, and the waves are summed in plain numpy.
"""

import numpy as np
from scipy.special import eval_gegenbauer
from turnarcs.simulator import draw_wave, wave_rng

# Largest |simulated - oracle| at the sample points, relative to the field's
# RMS.  Exact and bounded-error profiles differ by ~1e-11 and ~1e-8 of a
# wave's amplitude; one wrong wave moves the field by ~1/sqrt(L) of its RMS.
TOLERANCE = 1e-6


def replay_plan(config):
    """The WaveParams simulate draws, in wave-index order."""
    return [draw_wave(config, wave_rng(config.seed, i)) for i in range(config.L)]


def point_steps(plan, npts: int) -> int:
    """npts * sum(kappa_i + 1): the recurrence work of one realization."""
    return npts * sum(wave.degree + 1 for wave in plan)


def wave_weight(config, degree: int) -> float:
    """Amplitude that gives one wave the target covariance (the factor
    column carries the coefficient for multivariate models)."""
    d, p = config.d, config.p
    log_w2 = -float(config.degrees.log_pmf(degree))
    if p == 1:
        log_w2 += float(config.model.log_schoenberg_coeff(degree))
    else:
        log_w2 += np.log(p)
    if d == 1:
        log_w2 += 0.0 if degree == 0 else np.log(2.0)
    else:
        log_w2 += np.log(2.0 * degree + d - 1.0) - np.log(d - 1.0)
    return float(np.exp(0.5 * log_w2))


def reference_field(config, plan, points) -> np.ndarray:
    """Field values (npts, p) at the given points, summed wave by wave."""
    d, p = config.d, config.p
    total = np.zeros((points.shape[0], p))
    for wave in plan:
        t = np.clip(points @ wave.pole, -1.0, 1.0)
        if d == 1:
            profile = np.cos(wave.degree * np.arccos(t))
        else:
            profile = eval_gegenbauer(wave.degree, 0.5 * (d - 1), t)
        profile = wave.epsilon * wave_weight(config, wave.degree) * profile
        if p == 1:
            total[:, 0] += profile
        else:
            total += np.outer(profile, config.factor_columns(wave.degree)[:, wave.component])
    return total / np.sqrt(config.L)


def field_error(config, plan, points, values, sample) -> float:
    """max |values - reference| over the sample rows, relative to the RMS of
    all values (absolute when every value is 0, as when the only waves drawn
    are constant ones whose signs cancel)."""
    rms = float(np.sqrt(np.mean(np.square(values))))
    reference = reference_field(config, plan, points[sample])
    error = float(np.max(np.abs(values[sample] - reference)))
    return error / rms if rms > 0 else error
