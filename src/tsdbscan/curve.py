"""Exhaustive k(eps) sweeps and unimodality testing.

The sweep reads k(eps) off one exact curve build (``core.KCurve``) at
every radius of an increasing grid; the resulting
curve is expanded into an empirical sample over eps (each grid point
repeated k times) and handed to Hartigan's dip test, whose null
hypothesis is unimodality. A bootstrap against uniform samples of the
same size calibrates the p-value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CurveSample, KCurve, RunStats, approximate_diameter_ub
# unused here, but the benchmark's tracer patches the name tsdbscan.curve.dbscan
from .core import dbscan  # noqa: F401


@dataclass
class UnimodalityReport:
    dip: float
    p_value: float
    mode_epsilon: float
    mode_k: int
    n_boot: int


def epsilon_grid(x, grid_size: int, metric: str = "euclidean") -> np.ndarray:
    """Default sweep grid: ``grid_size`` even radii from UB0/1000 to the diameter bound UB0."""
    ub0 = approximate_diameter_ub(x, metric=metric)
    if ub0 <= 0:
        raise ValueError("degenerate dataset: all points coincide with the first")
    return np.linspace(ub0 / 1000, ub0, grid_size)


def sweep_curve(x, grid, min_pts: int, metric: str = "euclidean",
                stats: RunStats | None = None) -> list[CurveSample]:
    """k(eps) and noise at every grid radius, read off one :class:`KCurve`
    build: the values of one DBSCAN run per radius, with no DBSCAN run."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise ValueError("empty epsilon grid")
    if np.any(grid <= 0):
        raise ValueError("epsilon grid values must be positive")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("epsilon grid must be strictly increasing")
    curve = KCurve(x, min_pts, metric)
    if stats is not None:
        stats.curve_builds += 1
    return [CurveSample(float(eps), curve.k(eps), curve.noise(eps)) for eps in grid]


def curve_to_sample(curve: list[CurveSample]) -> np.ndarray:
    """Histogram expansion: repeat each eps k times.

    Presents the curve to the sample-based dip test as an empirical
    frequency distribution over eps.
    """
    ks = np.array([c.k for c in curve], dtype=np.int64)
    if np.any(ks < 0):
        raise ValueError("negative cluster counts in curve")
    if not np.any(ks > 0):
        raise ValueError("all-zero curve cannot be expanded into a sample")
    eps = np.array([c.epsilon for c in curve])
    return np.repeat(eps, ks)


def _minorant_touches(x: list[float]) -> list[int]:
    """For each j, the previous touch point of the greatest convex minorant of x[:j+1]."""
    mn = [0] * len(x)
    for j in range(1, len(x)):
        m = j - 1
        while m:
            mm = mn[m]
            if (x[j] - x[m]) * (m - mm) < (x[m] - x[mm]) * (j - m):
                break
            m = mm
        mn[j] = m
    return mn


def _segment_gap(x: list[float], knots: list[int], upper: bool) -> float:
    """Largest ECDF distance to the hull, times n, inside the segments between ascending knots."""
    gap = 0.0
    for jb, je in zip(knots, knots[1:]):
        t = 1.0
        if je - jb > 1 and x[je] != x[jb]:
            xb, c = x[jb], (je - jb) / (x[je] - x[jb])
            if upper:  # concave majorant: the line lies above the ECDF's left limit
                dev = ((v - xb) * c - (jj - jb - 1) for jj, v in enumerate(x[jb:je + 1], jb))
            else:  # convex minorant: the line lies below the ECDF
                dev = ((jj - jb + 1) - (v - xb) * c for jj, v in enumerate(x[jb:je + 1], jb))
            t = max(t, max(dev))
        gap = max(gap, t)
    return gap


def _dip_of_sorted(x: np.ndarray) -> float:
    """Hartigan & Hartigan's dip of a sorted sample (AS 217 algorithm)."""
    n = len(x)
    floor = 1.0 / (2 * n)
    if n < 4 or x[0] == x[-1]:
        return floor

    x = x.tolist()
    mn = _minorant_touches(x)
    # the concave majorant of x is the mirrored convex minorant of -x reversed;
    # negation and reversal are exact, so the touch points are too
    mj = [n - 1 - m for m in reversed(_minorant_touches([-v for v in reversed(x)]))]

    low, high = 0, n - 1
    dip = 0.0  # scaled by 2n until the final division
    while True:
        gcm = [high]  # minorant touch points from high down to low
        while gcm[-1] > low:
            gcm.append(mn[gcm[-1]])
        lcm = [low]  # majorant touch points from low up to high
        while lcm[-1] < high:
            lcm.append(mj[lcm[-1]])
        l_gcm, l_lcm = len(gcm) - 1, len(lcm) - 1
        ig, ih, ix, iv = l_gcm, l_lcm, l_gcm - 1, 1

        d = 0.0
        if l_gcm != 1 or l_lcm != 1:
            while True:
                gcmix, lcmiv = gcm[ix], lcm[iv]
                if gcmix > lcmiv:
                    gcmil = gcm[ix + 1]
                    dx = (lcmiv - gcmil + 1) - (x[lcmiv] - x[gcmil]) * (gcmix - gcmil) / (x[gcmix] - x[gcmil])
                    iv += 1
                    if dx >= d:
                        d, ig, ih = dx, ix + 1, iv - 1
                else:
                    lcmivl = lcm[iv - 1]
                    dx = (x[gcmix] - x[lcmivl]) * (lcmiv - lcmivl) / (x[lcmiv] - x[lcmivl]) - (gcmix - lcmivl - 1)
                    ix -= 1
                    if dx >= d:
                        d, ig, ih = dx, ix + 1, iv
                ix, iv = max(ix, 0), min(iv, l_lcm)
                if gcm[ix] == lcm[iv]:
                    break
        if d < dip:
            break

        # largest deviation inside the minorant and the majorant segments
        dip = max(dip, _segment_gap(x, gcm[ig:][::-1], False), _segment_gap(x, lcm[ih:], True))
        if low == gcm[ig] and high == lcm[ih]:
            break
        low, high = gcm[ig], lcm[ih]

    return max(dip / (2 * n), floor)


def dip_statistic(sample) -> float:
    """Dip statistic of a 1-D sample; always in [1/(2n), 1/4]."""
    x = np.sort(np.asarray(sample, dtype=np.float64).ravel())
    if len(x) < 2:
        raise ValueError("dip statistic needs at least 2 observations")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains NaN or Inf")
    return float(_dip_of_sorted(x))


def dip_p_value(sample, n_boot: int, seed: int) -> float:
    """Bootstrap p-value: fraction of same-size uniform samples whose dip
    is at least the observed one. Deterministic per seed."""
    if n_boot < 1:
        raise ValueError("n_boot must be positive")
    observed = dip_statistic(sample)
    n = len(np.asarray(sample).ravel())
    hits = 0
    for b in range(n_boot):
        rng = np.random.default_rng([seed, b])
        if dip_statistic(rng.random(n)) >= observed:
            hits += 1
    return hits / n_boot


def count_strict_local_maxima(curve: list[CurveSample]) -> int:
    """Strict local maxima of k over the sweep, with plateaus compressed."""
    ks = [c.k for c in curve]
    compressed = [ks[0]]
    for k in ks[1:]:
        if k != compressed[-1]:
            compressed.append(k)
    if len(compressed) < 2:
        return 0
    peaks = 0
    for i, k in enumerate(compressed):
        left_ok = i == 0 or compressed[i - 1] < k
        right_ok = i == len(compressed) - 1 or compressed[i + 1] < k
        if left_ok and right_ok:
            peaks += 1
    return peaks


def unimodality_report(x, grid_size: int, min_pts: int, metric: str = "euclidean",
                       n_boot: int = 1000, seed: int = 0,
                       stats: RunStats | None = None) -> UnimodalityReport:
    """Sweep a default grid, dip-test the curve, and report the mode."""
    if grid_size < 3:
        raise ValueError("grid_size must be at least 3")
    grid = epsilon_grid(x, grid_size, metric)
    curve = sweep_curve(x, grid, min_pts, metric=metric, stats=stats)
    sample = curve_to_sample(curve)
    dip = dip_statistic(sample)
    p = dip_p_value(sample, n_boot, seed)
    mode = max(curve, key=lambda c: c.k)  # the first on ties
    return UnimodalityReport(dip=dip, p_value=p, mode_epsilon=mode.epsilon,
                             mode_k=mode.k, n_boot=n_boot)
