"""Exact brute-force DBSCAN with deterministic border assignment.

Neighborhoods use the closed ball (d <= eps) and count the query point
itself, so a point is core when its eps-neighborhood, including itself,
holds at least ``min_pts`` points. Clusters are the connected components
of the eps-graph over core points plus their in-radius border points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

NOISE = -1

ROLE_NOISE = 0
ROLE_BORDER = 1
ROLE_CORE = 2

METRICS = ("euclidean", "manhattan", "cosine")

# scipy spells Manhattan "cityblock"; cosine runs on unit rows (see _validate)
_CDIST_NAME = {"euclidean": "euclidean", "manhattan": "cityblock", "cosine": "sqeuclidean"}

# Row chunk size for pairwise-distance blocks; keeps memory bounded at
# large N without changing any result.
_CHUNK = 1024


@dataclass
class RunStats:
    """Accumulates work counters across DBSCAN invocations.

    ``point_evaluations`` counts data-matrix cells touched by region
    queries: each query against an N x D matrix touches N*D cells.
    """

    dbscan_invocations: int = 0
    point_evaluations: int = 0


@dataclass
class CurveSample:
    """One k(eps) probe: the radius, the cluster count, the noise fraction."""

    epsilon: float
    k: int
    noise: float


@dataclass
class Labeling:
    """Per-point cluster assignment; ``labels[i] == NOISE`` marks noise."""

    labels: np.ndarray
    roles: np.ndarray

    @property
    def n_points(self) -> int:
        return len(self.labels)


def validate_points(points) -> np.ndarray:
    """Coerce to a finite float64 N x D matrix, rejecting bad input."""
    x = np.asarray(points, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"expected a nonempty 2-D point matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("point matrix contains NaN or Inf")
    return x


def _has_direction(x: np.ndarray) -> np.ndarray:
    """Rows whose squared norm neither underflows to 0 nor overflows: only
    these can be scaled to unit length."""
    sq = np.einsum("ij,ij->i", x, x)
    return (sq > 0) & np.isfinite(sq)


def _validate(points, metric: str) -> np.ndarray:
    """validate_points plus the metric; under cosine, rejects rows with no
    direction and returns the rows scaled to unit length."""
    x = validate_points(points)
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    if metric == "cosine":
        if not np.all(_has_direction(x)):
            raise ValueError("cosine distance is undefined for zero vectors "
                             "(and for rows whose squared norm underflows or overflows)")
        x = _unit_rows(x)
    return x


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """Rows scaled to unit length. Each row is first scaled by a power of two
    that brings its largest entry into [0.5, 1): exact, so rows whose squares
    are normal floats get the same result as x / |x|, while the squares of a
    tiny row stay out of the subnormal range, where |x| loses precision."""
    _, e = np.frexp(np.abs(x).max(axis=1, keepdims=True))
    x = np.ldexp(x, -e)
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def distance(p, q, metric: str = "euclidean") -> float:
    """Distance between two points; symmetric, zero on identical input."""
    p = np.asarray(p, dtype=np.float64).ravel()
    q = np.asarray(q, dtype=np.float64).ravel()
    if p.shape != q.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {q.shape}")
    x = _validate(np.stack([p, q]), metric)
    return float(_distance_block(x[:1], x[1:], metric, None)[0, 0])


def _distance_block(x_rows: np.ndarray, x: np.ndarray, metric: str, stats: RunStats | None) -> np.ndarray:
    """Pairwise distances of rows from ``_validate``. Cosine 1 - cos = |u - v|^2 / 2
    on unit rows, which is exactly 0 between identical rows."""
    d = cdist(x_rows, x, metric=_CDIST_NAME[metric])
    if metric == "cosine":
        d *= 0.5
    if stats is not None:
        stats.point_evaluations += x_rows.shape[0] * x.shape[0] * x.shape[1]
    return d


def region_query(x: np.ndarray, i: int, epsilon: float, metric: str = "euclidean") -> np.ndarray:
    """Indices of the closed eps-ball around point ``i`` (always includes i)."""
    x = _validate(x, metric)
    if not 0 <= i < len(x):
        raise IndexError(f"point index {i} out of range for N={len(x)}")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    d = _distance_block(x[i : i + 1], x, metric, None)[0]
    return np.flatnonzero(d <= epsilon)


def dbscan(points, epsilon: float, min_pts: int, metric: str = "euclidean",
           stats: RunStats | None = None) -> Labeling:
    """Run DBSCAN and return the labeling.

    Deterministic for a fixed point order: clusters are numbered by the
    index of their first core point and a border point reachable from
    several clusters is claimed by the cluster discovered first.
    """
    x = _validate(points, metric)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if min_pts < 2:
        raise ValueError("min_pts must be at least 2")
    n = len(x)
    if stats is not None:
        stats.dbscan_invocations += 1

    counts = np.empty(n, dtype=np.int64)
    for s in range(0, n, _CHUNK):
        block = _distance_block(x[s : s + _CHUNK], x, metric, stats)
        counts[s : s + _CHUNK] = np.count_nonzero(block <= epsilon, axis=1)
    core = counts >= min_pts

    labels = np.full(n, NOISE, dtype=np.int64)
    unassigned = np.arange(n, dtype=np.int64)
    cluster = 0
    for i in range(n):
        if labels[i] != NOISE or not core[i]:
            continue
        labels[i] = cluster
        unassigned = unassigned[labels[unassigned] == NOISE]
        frontier = np.array([i], dtype=np.int64)
        while frontier.size and unassigned.size:
            grown = []
            for s in range(0, frontier.size, _CHUNK):
                block = _distance_block(x[frontier[s : s + _CHUNK]], x[unassigned], metric, stats)
                fresh = unassigned[(block <= epsilon).any(axis=0) & (labels[unassigned] == NOISE)]
                labels[fresh] = cluster
                grown.append(fresh[core[fresh]])
            unassigned = unassigned[labels[unassigned] == NOISE]
            frontier = np.concatenate(grown) if grown else np.empty(0, dtype=np.int64)
        cluster += 1

    roles = np.full(n, ROLE_NOISE, dtype=np.int8)
    roles[labels != NOISE] = ROLE_BORDER
    roles[core] = ROLE_CORE
    return Labeling(labels=labels, roles=roles)


def count_clusters(labeling: Labeling) -> int:
    """Number of distinct non-noise labels."""
    labels = labeling.labels
    return int(len(np.unique(labels[labels != NOISE])))


def noise_fraction(labeling: Labeling) -> float:
    """Fraction of points labeled noise."""
    if labeling.n_points < 1:
        raise ValueError("empty labeling")
    return float(np.count_nonzero(labeling.labels == NOISE) / labeling.n_points)


def approximate_diameter_ub(points, metric: str = "euclidean") -> float:
    """Doubled 2-approximation of the diameter from the first point.

    diameter <= result <= 2 * diameter by the triangle inequality, in
    linear time. Cosine distance 1 - cos(theta) is no metric, but the
    angle theta is, so the bound doubles the widest angle from the first
    point (capped at pi); there diameter <= result <= 4 * diameter.
    Returns 0 when every point coincides with the first (in direction,
    under cosine); callers must substitute a positive floor in that case.
    """
    x = _validate(points, metric)
    if len(x) < 2:
        raise ValueError("need at least 2 points for a diameter bound")
    if metric != "cosine":
        return float(2.0 * _distance_block(x[:1], x, metric, None)[0].max())
    # the chord of the unit rows keeps small angles exact, unlike arccos
    chord = _distance_block(x[:1], x, "euclidean", None)[0].max()
    theta = min(np.pi, 4.0 * np.arcsin(min(1.0, 0.5 * chord)))
    return float(2.0 * np.sin(0.5 * theta) ** 2)
