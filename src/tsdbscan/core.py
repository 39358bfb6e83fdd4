"""Exact DBSCAN with deterministic border assignment.

Neighborhoods use the closed ball (d <= eps) and count the query point
itself, so a point is core when its eps-neighborhood, including itself,
holds at least ``min_pts`` points. Clusters are the connected components
of the eps-graph over core points plus their in-radius border points.
``KCurve`` gives the cluster count and noise fraction of that DBSCAN at
every radius from one build.

``dbscan`` first sorts the rows by their widest coordinate. The kernel
sums non-negative per-dimension terms and rounding is monotone, so the
kernel on that one coordinate is a lower bound, bit for bit, of the kernel
on all of them, and it grows with the gap between two rows in sorted
order. So each block of sorted rows [s, e) meets only the columns [lo, e),
from the first column within ``epsilon`` of row s on that coordinate,
found with the kernel itself on the one column. Within the windows, one
pass computes each pair of points once, and both counts the neighbours
and builds the components (Schubert et al., "DBSCAN Revisited,
Revisited", 2017). Counts only grow, so a point whose running count has
reached ``min_pts`` is core for good, and each block joins its core rows
with the core columns near them in a union-find forest over all N points,
whose roots are each tree's smallest index. A pair seen while an end was
not yet core is left out, and that end is late: it had a neighbour while
not yet core. After the pass, unless the core points already form one
tree, each late core point meets the core points in its window once more.
Border points then take the smallest cluster id among the core points in
their ball. These two passes share one block routine: blocks of rows
against the core columns that the block's first and last rows leave
within ``epsilon`` on the sort coordinate. Clusters are numbered by the
smallest caller index among their core points, and labels and roles are
returned in the caller's order. Memory is O(N) plus one block.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

NOISE = -1

ROLE_NOISE = 0
ROLE_BORDER = 1
ROLE_CORE = 2

METRICS = ("euclidean", "manhattan", "cosine")

# scipy spells Manhattan "cityblock"; cosine runs on unit rows (see _validate)
_CDIST_NAME = {"euclidean": "euclidean", "manhattan": "cityblock", "cosine": "sqeuclidean"}

# Cells (float64) in one pairwise-distance block: 4 MiB, so a block stays
# in cache for the pass that reads it back and its memory is reused rather
# than mapped afresh. The block size changes no result.
_BLOCK_CELLS = 1 << 19


def _block_rows(cols: int) -> int:
    """Rows of a block against ``cols`` columns."""
    return max(1, _BLOCK_CELLS // cols)


@dataclass
class RunStats:
    """Accumulates work counters across DBSCAN invocations.

    ``point_evaluations`` counts rows x cols x D over the distance blocks
    a DBSCAN run computes. Its one pass, which counts neighbours and joins
    core points, runs on the rows sorted by their widest coordinate and
    computes only the blocks on and below the diagonal, each cut to its
    window: rows [s, e) x [0, e) when the window rules no column out (N^2
    cells for one block, N(N+1)/2 for one-row blocks). The late re-check
    adds late core points x their window of the core points, unless the
    core points already form one tree, and the border pass non-core points
    with a neighbour x their window of the core points. Finding a window
    adds one row x the candidate columns at D = 1: row s x [0, s) in the
    pass, and in the later passes the block's first row x the core points
    below it and its last row x those above it.
    ``curve_builds`` counts :class:`KCurve` builds, which run no DBSCAN
    and add to neither of the other two counters.
    """

    dbscan_invocations: int = 0
    point_evaluations: int = 0
    curve_builds: int = 0


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
    on unit rows, which is exactly 0 between identical rows and clipped to 2,
    which rounding exceeds by an ulp on opposite rows. Symmetric bit for bit:
    both orders of a pair sum the same per-dimension terms in the same order."""
    d = cdist(x_rows, x, metric=_CDIST_NAME[metric])
    if metric == "cosine":
        d *= 0.5
        np.minimum(d, 2.0, out=d)
    if stats is not None:
        stats.point_evaluations += x_rows.shape[0] * x.shape[0] * x.shape[1]
    return d


def dbscan(points, epsilon: float, min_pts: int, metric: str = "euclidean",
           stats: RunStats | None = None) -> Labeling:
    """Run DBSCAN and return the labeling.

    Deterministic for a fixed point order: clusters are numbered by the
    smallest caller index among their core points and a border point
    reachable from several clusters takes the smallest cluster id, the
    cluster an expansion in index order would discover first. The passes
    run on the rows sorted by their widest coordinate, and each block of
    rows meets only the window of columns that the kernel on that one
    coordinate leaves within ``epsilon``; the window's one-column blocks
    count in ``stats`` at D = 1.
    """
    x = _validate(points, metric)
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if min_pts < 2:
        raise ValueError("min_pts must be at least 2")
    n = len(x)
    if stats is not None:
        stats.dbscan_invocations += 1

    # every pass below runs on the rows in order of the sort key; the
    # results are scattered back through ``order`` at the end
    widest = int(np.argmax(np.ptp(x, axis=0)))
    order = np.argsort(x[:, widest], kind="stable")
    x = x[order]
    key = x[:, [widest]]

    # distances are symmetric bit for bit, so rows [s, e) meet only columns
    # [lo, e): the row sums count their neighbours there, and the column
    # sums of [:, :s - lo] give rows [lo, s) their neighbours in [s, e)
    counts = np.zeros(n, dtype=np.int64)
    core = np.zeros(n, dtype=bool)
    # the forest of core components; each root is its tree's smallest index,
    # and _union leaves every node pointing at its root
    parent = np.arange(n)
    late = np.zeros(n, dtype=bool)  # had a neighbour while not yet core
    step = _block_rows(n)
    for s in range(0, n, step):
        e = min(n, s + step)
        # the columns below row s too far from it on the key are a prefix
        # (see _core_blocks), and too far from every later row
        lo = np.count_nonzero(_distance_block(key[s : s + 1], key[:s], metric, stats)[0] > epsilon)
        near = _distance_block(x[s:e], x[lo:e], metric, stats) <= epsilon
        row_counts = _count_true(near, axis=1)
        col_counts = _count_true(near[:, : s - lo], axis=0)
        counts[s:e] += row_counts
        counts[lo:s] += col_counts
        # counts only grow, so these points are core for good; a pair with an
        # end not yet core is left out, and that end is late
        core[lo:e] = counts[lo:e] >= min_pts
        late[s:e] |= (row_counts > 1) & ~core[s:e]
        late[lo:s] |= (col_counts > 0) & ~core[lo:s]
        rows = np.flatnonzero(core[s:e])
        if rows.size:
            if rows.size < e - s:
                near = near[rows]
            if not core[lo:e].all():
                near &= core[lo:e]
            _join(parent[:e], rows + s, np.arange(lo, e), near)

    # each late core point meets the core points in its window again, for
    # the pairs the pass left out, unless those already form one tree
    cores = np.flatnonzero(core)
    if np.any(parent[cores] != parent[cores[:1]]):
        for rows, cols, near in _core_blocks(x, key, cores[late[cores]], cores, epsilon, metric, stats):
            _join(parent, rows, cols, near)

    # clusters are numbered by the smallest caller index among their core
    # points; a border point takes the smallest id among the core points in
    # its ball, the cluster an expansion in index order would reach first
    first = np.full(n, n)
    np.minimum.at(first, parent[cores], order[cores])
    labels = np.full(n, NOISE, dtype=np.int64)
    _, labels[cores] = np.unique(first[parent[cores]], return_inverse=True)
    border = np.flatnonzero(~core & (counts > 1))
    for rows, cols, near in _core_blocks(x, key, border, cores, epsilon, metric, stats):
        ids = np.where(near, labels[cols], n).min(axis=1)
        labels[rows[ids < n]] = ids[ids < n]

    roles = np.full(n, ROLE_NOISE, dtype=np.int8)
    roles[labels != NOISE] = ROLE_BORDER
    roles[core] = ROLE_CORE
    rank = np.empty_like(order)
    rank[order] = np.arange(n)
    return Labeling(labels=labels[rank], roles=roles[rank])


def _core_blocks(x: np.ndarray, key: np.ndarray, rows: np.ndarray, cores: np.ndarray, epsilon: float,
                 metric: str, stats: RunStats | None):
    """Blocks of the ascending indices ``rows`` against the core points
    ``cores`` (ascending) they can be within ``epsilon`` of: yields each
    block, its window of ``cores`` and the block's ``near`` mask, and skips
    an empty window. The kernel sums non-negative per-dimension terms and
    rounding is monotone, so the kernel on the ascending one-column ``key``
    alone bounds the full kernel from below, and it grows with the gap in
    the key: the columns below a block's first row that are too far from
    it, and those above its last row too far from it, are too far from
    every row between."""
    step = _block_rows(max(1, cores.size))
    for s in range(0, rows.size, step):
        block = rows[s : s + step]
        below = _distance_block(key[block[:1]], key[cores[cores < block[0]]], metric, stats)[0]
        above = _distance_block(key[block[-1:]], key[cores[cores > block[-1]]], metric, stats)[0]
        cols = cores[np.count_nonzero(below > epsilon) : cores.size - np.count_nonzero(above > epsilon)]
        if cols.size:
            yield block, cols, _distance_block(x[block], x[cols], metric, stats) <= epsilon


def _count_true(near: np.ndarray, axis: int) -> np.ndarray:
    """``np.count_nonzero(near, axis)``, summed in the narrowest unsigned type
    that holds the count, which saves numpy a widening pass over the block."""
    return np.add.reduce(near.view(np.uint8), axis=axis, dtype=np.min_scalar_type(near.shape[axis]))


def _join(parent: np.ndarray, rows: np.ndarray, cols: np.ndarray, near: np.ndarray) -> None:
    """Union core point ``rows[i]`` with every core point ``cols[j]`` where
    ``near[i, j]``; each row is among the columns, so it is near one. Keeps
    one edge per row and tree: the row's first near column, then, if the
    near columns lie in several trees, one for each tree the row meets."""
    _union(parent, rows, cols[near.argmax(axis=1)])
    touched = np.flatnonzero(near.any(axis=0))
    roots = parent[cols[touched]]
    if np.all(roots == roots[0]):
        return
    order = np.argsort(roots, kind="stable")
    roots = roots[order]
    starts = np.flatnonzero(np.r_[True, roots[1:] != roots[:-1]])
    i, g = np.nonzero(np.logical_or.reduceat(near[:, touched[order]], starts, axis=1))
    _union(parent, rows[i], roots[starts[g]])


def _union(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join the trees of ``a[i]`` and ``b[i]``: hook each larger root under
    the smaller and jump pointers, until every pair shares a root. Takes and
    leaves every node pointing at its root. Every parent index is at most
    its node's, so any prefix of the forest is a forest."""
    while a.size:
        ra, rb = parent[a], parent[b]
        apart = ra != rb
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(up := parent[parent], parent):
            parent[:] = up


def count_clusters(labeling: Labeling) -> int:
    """Number of distinct non-noise labels."""
    labels = labeling.labels
    return int(len(np.unique(labels[labels != NOISE])))


def noise_fraction(labeling: Labeling) -> float:
    """Fraction of points labeled noise."""
    if labeling.n_points < 1:
        raise ValueError("empty labeling")
    return float(np.count_nonzero(labeling.labels == NOISE) / labeling.n_points)


class KCurve:
    """Exact k(eps) and noise(eps) of DBSCAN at every radius, from one build.

    A point is core at eps once eps reaches its core distance, the distance
    to its ``min_pts``-th nearest point (itself included), and two core
    points within eps are joined. So k(eps) is the number of core distances
    <= eps minus the number of edges <= eps of a minimum spanning tree over
    the mutual-reachability weights max(d_ij, core_i, core_j) (OPTICS,
    HDBSCAN). A point stops being noise once eps reaches its reach radius
    min_j max(d_ij, core_j), where it first lies in a core point's ball (its
    own included). The build compares the very distances ``dbscan`` does:
    O(N^2) time, memory O(N) plus one block of ``_BLOCK_CELLS`` cells.
    """

    def __init__(self, points, min_pts: int, metric: str = "euclidean"):
        x = _validate(points, metric)
        if min_pts < 2:
            raise ValueError("min_pts must be at least 2")
        n = len(x)
        core = np.full(n, np.inf)
        if min_pts <= n:
            step = _block_rows(n)
            for s in range(0, n, step):
                block = _distance_block(x[s : s + step], x, metric, None)
                block.partition(min_pts - 1, axis=1)
                core[s : s + step] = block[:, min_pts - 1]

        # dense Prim: scipy's sparse MST would drop the zero-weight edges
        # between duplicate rows
        reach = np.empty(n)
        edges = np.empty(n - 1)
        rest = np.arange(1, n)  # vertices not yet in the tree
        key = np.full(n - 1, np.inf)  # lightest edge from the tree to each of rest
        v = 0
        for t in range(n):
            m = np.maximum(_distance_block(x[v : v + 1], x, metric, None)[0], core)
            reach[v] = m.min()
            if t == n - 1:
                break
            np.minimum(key, np.maximum(m[rest], core[v]), out=key)
            # argmin over rest only: when every key is inf, an argmin over
            # masked full-length keys would pick a vertex already in the tree
            i = int(np.argmin(key))
            edges[t], v = key[i], rest[i]
            rest, key = np.delete(rest, i), np.delete(key, i)

        self.n_points = n
        self._core = np.sort(core)
        self._edges = np.sort(edges)
        self._reach = np.sort(reach)

    def k(self, epsilon: float) -> int:
        """``count_clusters(dbscan(points, epsilon, min_pts, metric))``."""
        return _count_at_most(self._core, epsilon) - _count_at_most(self._edges, epsilon)

    def noise(self, epsilon: float) -> float:
        """``noise_fraction(dbscan(points, epsilon, min_pts, metric))``."""
        return (self.n_points - _count_at_most(self._reach, epsilon)) / self.n_points


def _count_at_most(ascending: np.ndarray, epsilon: float) -> int:
    """How many values are <= epsilon: the closed ball."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return int(np.searchsorted(ascending, epsilon, side="right"))


def approximate_diameter_ub(points, metric: str = "euclidean") -> float:
    """Doubled 2-approximation of the diameter from the first point.

    diameter <= result <= 2 * diameter by the triangle inequality, in
    linear time. Cosine distance 1 - cos(theta) is no metric, but the
    angle theta is, so the bound doubles the widest angle from the first
    point (capped at pi); there diameter <= result <= 4 * diameter.
    The bracket holds except that a zero bound, when the points coincide
    (in direction, under cosine) or their distances underflow, warns and
    returns float64 eps, so every radius up to the bound is positive.
    Raises ValueError when the bound overflows.
    """
    x = _validate(points, metric)
    if len(x) < 2:
        raise ValueError("need at least 2 points for a diameter bound")
    if metric != "cosine":
        bound = 2.0 * float(_distance_block(x[:1], x, metric, None)[0].max())
        if not np.isfinite(bound):
            raise ValueError("the diameter bound overflows; rescale the data")
    else:
        # the chord of the unit rows keeps small angles exact, unlike arccos
        chord = _distance_block(x[:1], x, "euclidean", None)[0].max()
        theta = min(np.pi, 4.0 * np.arcsin(min(1.0, 0.5 * chord)))
        bound = float(2.0 * np.sin(0.5 * theta) ** 2)
    if bound == 0:
        warnings.warn("degenerate dataset: the diameter bound is 0, because the points "
                      "coincide or their distances underflow; using float64 eps")
        return float(np.finfo(np.float64).eps)
    return bound
