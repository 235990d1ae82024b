import numpy as np
from scipy.stats import chi2


def meridian_points(d, thetas):
    """Points at geodesic distance theta from the first axis, along one meridian."""
    thetas = np.asarray(thetas, dtype=float)
    pts = np.zeros((thetas.size, d + 1))
    pts[:, 0] = np.cos(thetas)
    pts[:, 1] = np.sin(thetas)
    return pts


def gof_pvalue(dist, draws, cells=50):
    """Chi-square goodness of fit over the first `cells` support atoms plus a
    tail bucket; the pmf operation is the oracle."""
    support = np.array([n for n in range(10 * cells) if dist.in_support(n)][:cells])
    probs = np.array([dist.pmf(int(n)) for n in support])
    tail = 1.0 - probs.sum()
    pos = np.searchsorted(support, draws)
    pos = np.clip(pos, 0, cells - 1)
    in_cell = support[pos] == draws
    counts = np.bincount(pos[in_cell], minlength=cells).astype(float)
    observed = np.append(counts, np.count_nonzero(~in_cell))
    expected = len(draws) * np.append(probs, tail)
    keep = expected > 0
    stat = np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep])
    return chi2.sf(stat, df=keep.sum() - 1)


def wave_profiles(d, degrees, points, poles, scale):
    """Profiles scale_i * G_{degrees_i}^((d-1)/2)(t_i), shape (m, npts), at the
    clipped projections t_i of the points onto poles[i]: the one-wave runs of
    simulator._wave_sums."""
    from turnarcs.simulator import _wave_sums

    return _wave_sums(d, np.asarray(degrees, dtype=np.int64), points, np.asarray(poles, float),
                      np.asarray(scale, dtype=float), None, 1)[:, 0]


def projections(points, poles):
    """The clipped projections that _wave_sums evaluates each pole's wave at,
    shape (m, npts): one points @ pole product per pole, the same doubles."""
    return np.array([np.clip(points @ pole, -1.0, 1.0) for pole in poles])


def great_circle(t, m=1):
    """Points on a great circle through the pole (1, 0), and m copies of that
    pole, such that every clipped projection is exactly t: each point is
    (t, sqrt(1 - t^2)).  _wave_sums reads points only through their
    projections, so these carry any t on any sphere."""
    t = np.asarray(t, dtype=float)
    return np.column_stack([t, np.sqrt(1.0 - t * t)]), np.tile([1.0, 0.0], (m, 1))
