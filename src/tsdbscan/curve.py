"""Exhaustive k(eps) sweeps and unimodality testing.

The sweep evaluates DBSCAN on an increasing radius grid; the resulting
curve is expanded into an empirical sample over eps (each grid point
repeated k times) and handed to Hartigan's dip test, whose null
hypothesis is unimodality. A bootstrap against uniform samples of the
same size calibrates the p-value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CurveSample,
    RunStats,
    approximate_diameter_ub,
    count_clusters,
    dbscan,
    noise_fraction,
    validate_points,
)


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
    """Evaluate k(eps) independently at every grid radius."""
    x = validate_points(x)
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise ValueError("empty epsilon grid")
    if np.any(grid <= 0):
        raise ValueError("epsilon grid values must be positive")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("epsilon grid must be strictly increasing")
    out = []
    for eps in grid:
        labeling = dbscan(x, float(eps), min_pts, metric=metric, stats=stats)
        out.append(CurveSample(float(eps), count_clusters(labeling), noise_fraction(labeling)))
    return out


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


def _dip_of_sorted(x: np.ndarray) -> float:
    """Hartigan & Hartigan's dip of a sorted sample (AS 217 algorithm)."""
    n = len(x)
    floor = 1.0 / (2 * n)
    if n < 4 or x[0] == x[-1]:
        return floor

    # touch indices for the greatest convex minorant fit
    mn = np.zeros(n, dtype=np.int64)
    for j in range(1, n):
        mn[j] = j - 1
        while True:
            mnj = mn[j]
            mnmnj = mn[mnj]
            if mnj == 0 or (x[j] - x[mnj]) * (mnj - mnmnj) < (x[mnj] - x[mnmnj]) * (j - mnj):
                break
            mn[j] = mnmnj
    # touch indices for the least concave majorant fit
    mj = np.zeros(n, dtype=np.int64)
    mj[n - 1] = n - 1
    for k in range(n - 2, -1, -1):
        mj[k] = k + 1
        while True:
            mjk = mj[k]
            mjmjk = mj[mjk]
            if mjk == n - 1 or (x[k] - x[mjk]) * (mjk - mjmjk) < (x[mjk] - x[mjmjk]) * (k - mjk):
                break
            mj[k] = mjmjk

    low, high = 0, n - 1
    dip = 0.0  # scaled by 2n until the final division
    gcm = np.zeros(n, dtype=np.int64)
    lcm = np.zeros(n, dtype=np.int64)
    while True:
        gcm[0] = high
        i = 0
        while gcm[i] > low:
            gcm[i + 1] = mn[gcm[i]]
            i += 1
        ig = l_gcm = i
        ix = ig - 1
        lcm[0] = low
        i = 0
        while lcm[i] < high:
            lcm[i + 1] = mj[lcm[i]]
            i += 1
        ih = l_lcm = i
        iv = 1

        d = 0.0
        if l_gcm != 1 or l_lcm != 1:
            while True:
                gcmix = gcm[ix]
                lcmiv = lcm[iv]
                if gcmix > lcmiv:
                    gcmil = gcm[ix + 1]
                    dx = (lcmiv - gcmil + 1) - (x[lcmiv] - x[gcmil]) * (gcmix - gcmil) / (x[gcmix] - x[gcmil])
                    iv += 1
                    if dx >= d:
                        d = dx
                        ig = ix + 1
                        ih = iv - 1
                else:
                    lcmivl = lcm[iv - 1]
                    dx = (x[gcmix] - x[lcmivl]) * (lcmiv - lcmivl) / (x[lcmiv] - x[lcmivl]) - (gcmix - lcmivl - 1)
                    ix -= 1
                    if dx >= d:
                        d = dx
                        ig = ix + 1
                        ih = iv
                if ix < 0:
                    ix = 0
                if iv > l_lcm:
                    iv = l_lcm
                if gcm[ix] == lcm[iv]:
                    break
        if d < dip:
            break

        # largest deviation inside the convex-minorant segments
        dip_l = 0.0
        for j in range(ig, l_gcm):
            max_t = 1.0
            jb, je = gcm[j + 1], gcm[j]
            if je - jb > 1 and x[je] != x[jb]:
                c = (je - jb) / (x[je] - x[jb])
                for jj in range(jb, je + 1):
                    t = (jj - jb + 1) - (x[jj] - x[jb]) * c
                    if max_t < t:
                        max_t = t
            if dip_l < max_t:
                dip_l = max_t
        # largest deviation inside the concave-majorant segments
        dip_u = 0.0
        for j in range(ih, l_lcm):
            max_t = 1.0
            jb, je = lcm[j], lcm[j + 1]
            if je - jb > 1 and x[je] != x[jb]:
                c = (je - jb) / (x[je] - x[jb])
                for jj in range(jb, je + 1):
                    t = (x[jj] - x[jb]) * c - (jj - jb - 1)
                    if max_t < t:
                        max_t = t
            if dip_u < max_t:
                dip_u = max_t

        dip = max(dip, dip_l, dip_u)
        if low == gcm[ig] and high == lcm[ih]:
            break
        low = gcm[ig]
        high = lcm[ih]

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
