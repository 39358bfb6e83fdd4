"""Ternary-search tuning of the DBSCAN radius.

The cluster count k(eps) is near-unimodal: it rises from 0 (everything
noise) to a mode and falls back to 1 (one merged cluster). Ternary
search exploits this to locate argmax k(eps) with two DBSCAN probes per
iteration, after sampling-based bounds shrink the initial interval.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    CurveSample,
    Labeling,
    PreparedPoints,
    RunStats,
    _as_integer,
    _check_min_pts,
    _has_direction,
    approximate_diameter_ub,
    dbscan,
    validate_points,
)

# sub-seed tags keeping the row, dimension, and repeat RNG streams apart
_SEED_ROWS = 1
_SEED_DIMS = 2
_SEED_REPEAT = 3

# noise fraction above which effective_k discounts a lone cluster
CHANCE_NOISE_THRESHOLD = 0.9

@dataclass
class SearchBounds:
    """Interval the search contracts around the mode of k(eps)."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (0 <= self.lower < self.upper < math.inf):
            raise ValueError(f"need 0 <= lower < upper < inf, got [{self.lower}, {self.upper}]")


@dataclass
class TuneConfig:
    """Every knob of the tuning pipeline."""

    min_pts: int
    itr: int = 6
    alpha: float = 0.2
    m: int = 30
    seed: int = 0
    metric: str = "euclidean"

    def __post_init__(self):
        _check_min_pts(self.min_pts)
        if _as_integer(self.itr, "itr") < 1:
            raise ValueError("itr must be positive")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if _as_integer(self.m, "m") < 1:
            raise ValueError("m must be positive")
        # numpy's seed sequences take no negative entropy
        if _as_integer(self.seed, "seed") < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def effective_k(probe: CurveSample) -> int:
    """Cluster count with the chance-single-cluster guard.

    A lone cluster that leaves almost every point as noise formed by
    chance, not by convergence; treat it as the under-eps regime (k=0)
    so the search keeps moving right.
    """
    if probe.k == 1 and probe.noise > CHANCE_NOISE_THRESHOLD:
        return 0
    return probe.k


def cond(bounds: SearchBounds, m_l: float, m_r: float, k_l: int, k_r: int) -> SearchBounds:
    """Interval-reduction rule; keeps the mode, drops 1/3 or 2/3."""
    if k_l == 1 and k_r == 1:
        return SearchBounds(bounds.lower, m_l)
    if k_l == 0 and k_r == 1:
        return SearchBounds(m_l, m_r)
    if k_l == 0 and k_r == 0:
        return SearchBounds(m_r, bounds.upper)
    if k_l > k_r:
        return SearchBounds(bounds.lower, m_r)
    return SearchBounds(m_l, bounds.upper)


def _prober(x, cfg: TuneConfig, stats: RunStats | None):
    """The k(eps) probe of the rows ``x``, a matrix prepared here once for
    every radius the probe is called at, or a :class:`PreparedPoints` of
    ``cfg.metric``. Under cosine, rows of a matrix with no direction (a
    dimension subsample may zero them out) have no angle, and count as
    noise at every radius.

    Rows prepared here are a search stage's own set: every probe on them
    reads its counts off the set's :class:`KCurve`, built inside the first
    probe's ``dbscan`` (see there). A caller's set is never marked: a
    final clustering that reuses it keeps the plan its probes ran."""
    if isinstance(x, PreparedPoints):
        points = x
        n = len(points)
    else:
        x = validate_points(x)
        n = len(x)
        if cfg.metric == "cosine":
            x = x[_has_direction(x)]
        if not len(x):
            return lambda epsilon: CurveSample(epsilon, 0, 1.0)
        points = PreparedPoints(x, cfg.metric)
        points._reads_curve = True

    def probe(epsilon: float) -> CurveSample:
        labeling = dbscan(points, epsilon, cfg.min_pts, metric=cfg.metric, stats=stats)
        noise = (labeling.n_noise + n - len(points)) / n
        return CurveSample(epsilon=epsilon, k=labeling.n_clusters, noise=float(noise))

    return probe


def ternary_search(x, bounds: SearchBounds, cfg: TuneConfig,
                   stats: RunStats | None = None) -> float:
    """Contract ``bounds`` for ``cfg.itr`` iterations; return the midpoint
    of the last probed pair.

    A trisection pair is probed only when ``lower < m_l < m_r < upper``;
    once float resolution breaks that, the search stops, so the interval
    never empties. If no pair was probed, it warns and returns the
    interval's midpoint. So at most 2*itr DBSCAN probes, and whenever one
    ran the result lies strictly inside the initial bounds.
    ``x`` is a matrix, or a :class:`PreparedPoints` of ``cfg.metric`` that
    the probes share, as ``dbscan`` takes. Under cosine, rows of a matrix
    with no direction (zero rows) count as noise. On a matrix, which the
    search prepares itself, every probe reads the set's curve
    (``_prober``): the same k and noise at every radius, so the same
    result, with one curve build in place of the passes. The bound stages
    and TSE's searches search matrices; the final search runs on the
    caller's prepared set and keeps the pass.
    """
    probe = _prober(x, cfg, stats)
    mid = None
    for _ in range(cfg.itr):
        m_l = (2 * bounds.lower + bounds.upper) / 3
        m_r = (bounds.lower + 2 * bounds.upper) / 3
        if not bounds.lower < m_l < m_r < bounds.upper:  # collapsed to float resolution
            break
        k_l = effective_k(probe(m_l))
        k_r = effective_k(probe(m_r))
        bounds = cond(bounds, m_l, m_r, k_l, k_r)
        mid = 0.5 * (m_l + m_r)
    if mid is None:
        warnings.warn("degenerate search interval; returning its midpoint")
        mid = 0.5 * (bounds.lower + bounds.upper)
    return mid


def _subsample(n: int, cfg: TuneConfig, rng: np.random.Generator) -> np.ndarray:
    """Sorted indices of ceil(alpha * n) of range(n), at least one."""
    size = max(1, math.ceil(cfg.alpha * n))
    return np.sort(rng.choice(n, size=size, replace=False))


def estimate_upper_bound(x, cfg: TuneConfig, ub0: float,
                         stats: RunStats | None = None) -> float:
    """Heuristic upper bound for the mode of k(eps).

    A row subsample is sparser than the full data, so its best radius is
    larger; ternary search on the subsample over (0, ub0), with ub0 the
    diameter bound, yields an UB. A subsample of ceil(alpha * N) <= min_pts
    rows cannot hold a cluster; then it warns and returns ub0.
    """
    x = validate_points(x)
    n = len(x)
    if math.ceil(cfg.alpha * n) <= cfg.min_pts:
        warnings.warn("subsample too small for the upper-bound heuristic; using the trivial bound")
        return ub0
    rng = np.random.default_rng([cfg.seed, _SEED_ROWS])
    return ternary_search(x[_subsample(n, cfg, rng)], SearchBounds(0.0, ub0), cfg, stats)


def estimate_lower_bound(x, ub: float, cfg: TuneConfig,
                         stats: RunStats | None = None) -> float:
    """Heuristic lower bound: project onto a dimension subsample.

    Dropping dimensions brings points closer, so the projected best
    radius is smaller; ternary search runs with (0, ub) as its interval.
    """
    x = validate_points(x)
    rng = np.random.default_rng([cfg.seed, _SEED_DIMS])
    proj = x[:, _subsample(x.shape[1], cfg, rng)]
    return ternary_search(proj, SearchBounds(0.0, ub), cfg, stats)


def _resolve_bounds(x: np.ndarray, cfg: TuneConfig, stats: RunStats | None) -> SearchBounds:
    """Shared bound-estimation prologue: UB from the diameter bound UB0, then
    LB strictly inside (0, UB), so LB < UB."""
    ub = estimate_upper_bound(x, cfg, approximate_diameter_ub(x, metric=cfg.metric), stats)
    return SearchBounds(estimate_lower_bound(x, ub, cfg, stats=stats), ub)


def _tune(x, cfg: TuneConfig, stats: RunStats | None, final_stage) -> tuple[float, Labeling]:
    """Bounds, then ``final_stage(x, points, bounds, cfg, stats)`` inside
    them, with ``points`` the rows prepared once, then an uncounted
    clustering of ``points`` at the result, which reuses whatever the
    final stage's probes built on them (a matrix or groups)."""
    x = validate_points(x)
    if len(x) < cfg.min_pts:
        raise ValueError(f"need at least min_pts={cfg.min_pts} points, got {len(x)}")
    points = PreparedPoints(x, cfg.metric)
    epsilon = final_stage(x, points, _resolve_bounds(x, cfg, stats), cfg, stats)
    return epsilon, dbscan(points, epsilon, cfg.min_pts, metric=cfg.metric)


def ts_clustering(x, cfg: TuneConfig, stats: RunStats | None = None) -> tuple[float, Labeling]:
    """Full pipeline: bounds, ternary search, final clustering.

    Three ternary searches (upper bound, lower bound, final) cost at most
    6*itr DBSCAN probes, fewer only when an interval collapses to float
    resolution; the returned labeling is one extra run at the tuned radius,
    on the prepared set the final search probed.
    """
    return _tune(x, cfg, stats, lambda x, points, *search: ternary_search(points, *search))


def tse_estimate(x, bounds: SearchBounds, cfg: TuneConfig,
                 stats: RunStats | None = None) -> float:
    """Averaged doubly-subsampled estimate of the best radius.

    Row sampling pushes the best radius up, dimension sampling pulls it
    down; sampling both at once roughly cancels, so the mean over
    ``cfg.m`` independent repeats estimates the full-data optimum at a
    fraction of the cost.
    """
    x = validate_points(x)
    estimates = np.empty(cfg.m)
    for r in range(cfg.m):
        rng = np.random.default_rng([cfg.seed, _SEED_REPEAT, r])
        rows = _subsample(len(x), cfg, rng)
        dims = _subsample(x.shape[1], cfg, rng)
        estimates[r] = ternary_search(x[np.ix_(rows, dims)], bounds, cfg, stats)
    return float(estimates.mean())


def tse_clustering(x, cfg: TuneConfig, stats: RunStats | None = None) -> tuple[float, Labeling]:
    """Like ts_clustering but with the subsampled estimator as the final
    stage, whose probes run on subsamples; the final clustering runs on the
    full rows, prepared for it."""
    return _tune(x, cfg, stats, lambda x, points, *search: tse_estimate(x, *search))
