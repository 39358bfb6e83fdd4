"""Exact DBSCAN with deterministic border assignment.

Neighborhoods use the closed ball (d <= eps) and count the query point
itself, so a point is core when its eps-neighborhood, including itself,
holds at least ``min_pts`` points. Clusters are the connected components
of the eps-graph over core points plus their in-radius border points.
``KCurve`` gives the cluster count and noise fraction of that DBSCAN at
every radius from one build.

``dbscan`` first sorts the rows by their widest coordinate, the sort key.
The kernel sums non-negative per-dimension terms and rounding is monotone,
so the kernel on the key alone bounds the full kernel from below, bit for
bit, and it grows with the gap between two rows in sorted order. So the
rows within ``epsilon`` of row i on the key, its key ball, are a run
[lo_i, hi_i] that holds its ball. Every window is read off these runs,
found once per run: hi_i by a guess from the keys, checked and searched
with the kernel on single pairs (``_ball_ends``), and lo_i by symmetry.
Each block of sorted rows [s, e) meets only the columns [lo_s, e).
Within the windows, one pass computes each pair of points once, and both
counts the neighbours and builds the components (Schubert et al., "DBSCAN
Revisited, Revisited", 2017). Counts only grow, so a point whose running
count has reached ``min_pts`` is core for good, and each block joins its
core rows with the core columns near them in a union-find forest over all
N points, whose roots are each tree's smallest index. So a count that
has reached ``min_pts`` no longer matters, and a pair of core points in
one tree adds no join: a block meets its nearest columns first, itself and
the max(``min_pts``, block rows) columns before it, and skips the far rest
of its window once its rows and those far columns are all core in one
tree (compare Gan & Tao, "DBSCAN Revisited: Mis-Claim, Un-Fixability, and
Approximation", 2015, whose dense cells make points core without range
queries). Until then the nearest chunk doubles, and a block whose far
columns are not yet core in one tree meets its whole window at once. A
pair seen while an end was not yet core is left out, and that end is
late: it had a neighbour while not yet core. After the pass, unless the
core points already form one tree, each late core point meets the core
points in its window once more. The border pass then finds the core
points in the ball of each non-core point with a neighbour. These two
passes share one block routine: blocks of rows against the core columns
from the key ball of the block's first row to that of its last.

The cluster count is the number of the forest's roots among core points,
and the noise count the number of points neither core nor in the ball of
a core point, so a run knows both when its passes end. Labels and roles
are numbered only when first read: clusters by the smallest caller index
among their core points, and a border point takes the smallest cluster id
among the core points in its ball, both in the caller's order. Memory is
O(N) plus one block.

All of this before the radius matters, the validation, the sort and the
sorted copy, is done once by :class:`PreparedPoints`, which any number of
runs at different radii share. When N^2 fits one block, the set's first
run computes its whole distance matrix, and every block of every run on
it is a slice or a gather of that matrix.

With one column the key ball is the ball itself, and a point's count is
its run's length. The clusters are the runs of core points each within
``epsilon`` of the one before, and a border point takes the smaller id of
the nearest core point on each side within ``epsilon``: no distance block
is computed. Each kernel value on the key is its pair's bit for bit, from
the pair's difference (``_gap_kernel``), and counts as one cell at D = 1.
"""

from __future__ import annotations

import mmap
import operator
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

    ``point_evaluations`` counts each kernel cell once, when it is computed:
    rows x cols x D over the distance blocks a DBSCAN run computes, plus one
    cell (D = 1) for each pair whose kernel on the sort key the ball ends
    are checked on: each row's guessed end and the row past it, about 2N a
    run, and O(log N) more for each row the guess misses. On one column that
    is all. Otherwise the one pass, which counts neighbours and joins core
    points, computes only the blocks on and below the diagonal, each cut to
    its window: rows [s, e) x [lo_s, e), which is [0, e) when the window
    rules no column out (N^2 cells for one block, N(N+1)/2 for one-row
    blocks). A block whose rows and far columns turn core in one tree
    computes only its nearest columns [c, e), the chunk that did it, and
    fewer cells. The late re-check adds late core points x their window of
    the core points, unless the core points already form one tree, and the
    border pass non-core points with a neighbour x their window of the core
    points. When N^2 fits one block, the first run on a
    :class:`PreparedPoints` that needs a block computes its whole matrix,
    N^2 x D cells, and every block after that, in that run and in each
    later run on the same points, reads cached cells and adds none.
    ``dbscan_invocations`` counts the runs, cached or not.
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


class Labeling:
    """Per-point cluster assignment from ``dbscan``; ``labels[i] == NOISE``
    marks noise.

    ``n_clusters`` and ``n_noise`` are known at once. ``labels`` and
    ``roles`` are numbered only when one of them is first read
    (``_label_points(*forest)``): a probe that reads only the counts builds
    no per-point array.
    """

    def __init__(self, n_clusters: int, n_noise: int, *forest):
        self.n_clusters, self.n_noise = n_clusters, n_noise
        self._labels = self._roles = None
        self._deferred = forest

    def _build(self) -> None:
        if self._deferred is not None:
            self._labels, self._roles = _label_points(*self._deferred)
            self._deferred = None

    @property
    def labels(self) -> np.ndarray:
        self._build()
        return self._labels

    @property
    def roles(self) -> np.ndarray:
        self._build()
        return self._roles


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


def _as_integer(value, name: str) -> int:
    """``value`` as an integer by ``operator.index`` (numpy's integers pass,
    3.0 does not), else a ValueError that names it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_min_pts(min_pts) -> None:
    """Rejects a ``min_pts`` that is not an integer of at least 2."""
    if _as_integer(min_pts, "min_pts") < 2:
        raise ValueError("min_pts must be at least 2")


def _check_epsilon(epsilon: float) -> None:
    """Rejects a radius that is not positive and finite."""
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")


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


def _distance_block(x_rows: np.ndarray, x: np.ndarray, metric: str, stats: RunStats | None,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Pairwise distances of rows from ``_validate``, into ``out`` when given (a
    C-contiguous float64 array of the block's shape). Cosine 1 - cos = |u - v|^2 / 2
    on unit rows, which is exactly 0 between identical rows and clipped to 2,
    which rounding exceeds by an ulp on opposite rows. Symmetric bit for bit:
    both orders of a pair sum the same per-dimension terms in the same order."""
    d = cdist(x_rows, x, metric=_CDIST_NAME[metric], out=out)
    if metric == "cosine":
        d *= 0.5
        np.minimum(d, 2.0, out=d)
    if stats is not None:
        stats.point_evaluations += x_rows.shape[0] * x.shape[0] * x.shape[1]
    return d


class PreparedPoints:
    """Points made ready once for ``dbscan`` runs at many radii under one
    metric: validated (unit rows under cosine, see ``_validate``) and sorted
    by their widest coordinate, the sort key. ``x`` is the sorted copy,
    ``order`` the caller's index of each sorted row and ``key`` the sorted
    key; none of them depends on the radius.

    When N^2 fits one block (``_BLOCK_CELLS``), the first run that needs a
    distance block computes the whole matrix of the sorted rows, counted in
    that run's ``stats``, and every block of every run is then a slice or a
    gather of it: the same values bit for bit, because each kernel value
    depends on its pair alone. One column needs no block.
    """

    def __init__(self, points, metric: str = "euclidean"):
        x = _validate(points, metric)
        # a span that overflows is inf, still the widest
        with np.errstate(over="ignore"):
            widest = int(np.argmax(np.ptp(x, axis=0)))
        self.metric = metric
        self.order = np.argsort(x[:, widest], kind="stable")
        self.x = x[self.order]
        self.key = np.ascontiguousarray(self.x[:, widest])
        self._matrix = None

    def __len__(self) -> int:
        return self.order.size

    def _block(self, rows, cols, stats: RunStats | None) -> np.ndarray:
        """The kernel of the sorted rows ``rows`` against ``cols``: two
        slices, or two ascending index arrays."""
        x, n = self.x, len(self.x)
        if self._matrix is None and n * n <= _BLOCK_CELLS:
            # the matrix outlives the many short-lived arrays of the runs
            # that read it, so it gets its own anonymous mapping, unmapped
            # when the set is freed: in the malloc heap it would strand a
            # hole that the heap can neither trim nor reuse whole
            matrix = np.frombuffer(mmap.mmap(-1, 8 * n * n), dtype=np.float64).reshape(n, n)
            self._matrix = _distance_block(x, x, self.metric, stats, matrix)
        if self._matrix is None:
            return _distance_block(x[rows], x[cols], self.metric, stats)
        return self._matrix[rows, cols] if isinstance(rows, slice) else self._matrix[np.ix_(rows, cols)]


def dbscan(points, epsilon: float, min_pts: int, metric: str = "euclidean",
           stats: RunStats | None = None) -> Labeling:
    """Run DBSCAN and return the labeling.

    ``points`` is a matrix, or a :class:`PreparedPoints` of ``metric`` that
    many runs share. Deterministic for a fixed point order: clusters are
    numbered by the smallest caller index among their core points and a
    border point reachable from several clusters takes the smallest cluster
    id, the cluster an expansion in index order would discover first. The
    passes run on the rows sorted by their widest coordinate, the sort key.
    The ball of each row on the key alone is a run of sorted rows, found
    once with the kernel on pairs of keys, each one cell at D = 1 in
    ``stats``, and each block of rows meets only the columns in its rows'
    runs, and of those only the nearest once the rest can change nothing.
    With one column the run is the ball, so no distance block is computed.
    The labeling knows its cluster and noise counts at once, and numbers
    ``labels`` and ``roles`` only when one of them is first read.
    """
    if not isinstance(points, PreparedPoints):
        points = PreparedPoints(points, metric)
    elif points.metric != metric:
        raise ValueError(f"points prepared for metric {points.metric!r}, not {metric!r}")
    _check_epsilon(epsilon)
    _check_min_pts(min_pts)
    n = len(points)
    if stats is not None:
        stats.dbscan_invocations += 1

    # every pass below runs on the sorted rows, scattered back through
    # ``order`` at the end. The kernel is symmetric bit for bit, so row j <= i
    # lies in the key ball of i exactly when i lies in that of j; and hi
    # never decreases
    hi = _ball_ends(points.key, epsilon, metric, stats)
    lo = np.searchsorted(hi, np.arange(n))
    if points.x.shape[1] == 1:
        core, parent, border_blocks = _one_column(lo, hi, min_pts)
    else:
        core, parent, border_blocks = _windowed(points, lo, hi, epsilon, min_pts, stats)

    # the clusters are the forest's trees of core points; a border point is in
    # a core point's ball, and noise in none. Each border point keeps the
    # smallest caller index of the trees in its ball, by which labels number
    # the clusters on first read
    order = points.order
    cores = np.flatnonzero(core)
    first, border, border_first = None, [], []
    for rows, cols, near in border_blocks:
        if first is None:
            first = _tree_first(order, parent, cores)
        best = np.where(near, first[parent[cols]], n).min(axis=1)
        border.append(rows[best < n])
        border_first.append(best[best < n])
    n_border = sum(rows.size for rows in border)
    return Labeling(int(np.count_nonzero(parent[cores] == cores)), n - cores.size - n_border,
                    order, core, parent, first, border, border_first)


def _tree_first(order: np.ndarray, parent: np.ndarray, cores: np.ndarray) -> np.ndarray:
    """The smallest caller index of each tree of core points, at its root."""
    first = np.full(order.size, order.size)
    np.minimum.at(first, parent[cores], order[cores])
    return first


def _label_points(order: np.ndarray, core: np.ndarray, parent: np.ndarray, first: np.ndarray | None,
                  border: list, border_first: list) -> tuple[np.ndarray, np.ndarray]:
    """Labels and roles in the caller's order, from the sorted rows' core
    mask and forest: clusters are numbered by the smallest caller index
    among their core points, and each border row in ``border`` takes the
    cluster whose smallest caller index is its ``border_first``."""
    n = order.size
    cores = np.flatnonzero(core)
    if first is None:
        first = _tree_first(order, parent, cores)
    ids = np.sort(first[cores[parent[cores] == cores]])  # one per cluster
    labels = np.full(n, NOISE, dtype=np.int64)
    labels[cores] = np.searchsorted(ids, first[parent[cores]])
    for rows, best in zip(border, border_first):
        labels[rows] = np.searchsorted(ids, best)
    roles = np.full(n, ROLE_NOISE, dtype=np.int8)
    roles[labels != NOISE] = ROLE_BORDER
    roles[core] = ROLE_CORE
    rank = np.empty_like(order)
    rank[order] = np.arange(n)
    return labels[rank], roles[rank]


def _windowed(points: PreparedPoints, lo: np.ndarray, hi: np.ndarray, epsilon: float, min_pts: int,
              stats: RunStats | None):
    """The counts pass and the late re-check on the sorted rows ``points.x``
    with key balls [lo, hi]. Each block of the counts pass meets the nearest
    chunk of its window first and stops once its rows and the far columns
    left are core in one tree. Returns the core mask, the forest of the core
    components (each core point's root is its tree's smallest index), and
    the border blocks: each non-core row with a neighbour against the core
    points in its window (see ``_core_blocks``)."""
    n = len(points)
    # distances are symmetric bit for bit, so rows [s, e) meet only columns
    # [w, e), from the key ball of row s on: the row sums count their
    # neighbours there, and the column sums give the columns before s their
    # neighbours in [s, e)
    counts = np.zeros(n, dtype=np.int64)
    core = np.zeros(n, dtype=bool)
    # the forest of core components; each root is its tree's smallest index,
    # and _union leaves every node pointing at its root
    parent = np.arange(n)
    late = np.zeros(n, dtype=bool)  # had a neighbour while not yet core
    step = _block_rows(n)
    for s in range(0, n, step):
        e, w = min(n, s + step), lo[s]
        # the block meets its nearest columns [c, e) first: itself and the
        # max(min_pts, e - s) columns before it. Counts matter only until a
        # point is core, and a pair of core points in one tree adds no join,
        # so once the rows and the far columns [w, c) are core in one tree,
        # those columns can change nothing. Until then the chunk before the
        # rows doubles; a block whose far columns are not core in one tree
        # meets its whole window at once
        c = max(w, s - max(min_pts, e - s))
        if c > w and not (core[w] and parent[c - 1] == parent[w] and np.all(parent[w:c] == parent[w])):
            c = w
        chunks, rows, b = [], None, e
        while True:
            near = points._block(slice(s, e), slice(c, b), stats) <= epsilon
            # the rows' core mask after the block, which their joins need, is
            # known once they are all core or the window is met; till then
            # the chunks wait, to be joined as one
            if rows is None:
                chunks.append(near)
                more = _count_true(near, axis=1)
                row_counts = more if len(chunks) == 1 else np.add(row_counts, more, dtype=np.int64)
                if c == w or row_counts.min() >= min_pts:
                    # counts only grow, so these points are core for good; a
                    # pair with an end not yet core is left out, and that end
                    # is late
                    counts[s:e] += row_counts
                    core[s:e] = counts[s:e] >= min_pts
                    late[s:e] |= (row_counts > 1) & ~core[s:e]
                    rows = np.flatnonzero(core[s:e])
                    near, b = near if len(chunks) == 1 else np.concatenate(chunks[::-1], axis=1), e
            if rows is not None:
                m = min(b, s)
                col_counts = _count_true(near[:, : m - c], axis=0)
                counts[c:m] += col_counts
                core[c:m] = counts[c:m] >= min_pts
                late[c:m] |= (col_counts > 0) & ~core[c:m]
                joined = rows
                if joined.size < e - s:
                    near = near[joined]
                if not core[c:b].all():
                    near &= core[c:b]
                if b <= s:  # off the diagonal a row may meet no core column
                    hit = near.any(axis=1)
                    joined, near = joined[hit], near[hit]
                if joined.size:
                    _join(parent[:e], joined + s, np.arange(c, b), near)
                if c == w or np.all(parent[s:e] == parent[w]):
                    break
            b, c = c, max(w, 2 * c - s)

    # each late core point meets the core points in its window again, for
    # the pairs the pass left out, unless those already form one tree
    cores = np.flatnonzero(core)
    if np.any(parent[cores] != parent[cores[:1]]):
        for rows, cols, near in _core_blocks(points, lo, hi, cores[late[cores]], cores, epsilon, stats):
            _join(parent, rows, cols, near)
    border = np.flatnonzero(~core & (counts > 1))
    return core, parent, _core_blocks(points, lo, hi, border, cores, epsilon, stats)


def _one_column(lo: np.ndarray, hi: np.ndarray, min_pts: int):
    """The exact engine on one column, with the returns of ``_windowed``:
    each ball is its run [lo_i, hi_i], and a count is the run's length. Two
    core points within ``epsilon`` are within it of every core point between
    them, so the clusters are the runs of core points each in the ball of
    the one before, rooted at their first. The core points within
    ``epsilon`` on one side of a row are in one cluster, so the one border
    block meets each border row with the nearest core point on each side."""
    counts = hi - lo + 1
    core = counts >= min_pts
    cores = np.flatnonzero(core)
    starts = np.ones(cores.size, dtype=bool)
    starts[1:] = hi[cores[:-1]] < cores[1:]
    parent = np.arange(hi.size)
    parent[cores] = cores[starts][np.cumsum(starts) - 1]
    if not cores.size:
        return core, parent, []
    border = np.flatnonzero(~core & (counts > 1))
    at = np.searchsorted(cores, border)
    left, right = cores[np.maximum(at - 1, 0)], cores[np.minimum(at, cores.size - 1)]
    near = np.stack(((at > 0) & (left >= lo[border]), (at < cores.size) & (right <= hi[border])), axis=1)
    return core, parent, [(border, np.stack((left, right), axis=1), near)]


def _ball_ends(key: np.ndarray, epsilon: float, metric: str, stats: RunStats | None) -> np.ndarray:
    """The last row within ``epsilon`` of each row of the ascending ``key``.
    The kernel grows with the gap in sorted order, so one call checks a
    guess from the keys alone on its pair and on the next row's. A row that
    either check refutes searches the bracket [a, b) they leave, a near and
    b far or n: it gallops from the guess in doubling steps until a probe
    lands past the end, then halves, in O(log N) checks, one call a round
    for all rows left. A probe moves the bracket across its whole run of
    equal keys, which are equally far. A sum or gap that overflows is inf,
    as cdist's difference of the pair is, and warns of nothing."""
    n = key.size
    with np.errstate(over="ignore"):
        hi = np.searchsorted(key, key + epsilon, side="right") - 1
        on = np.flatnonzero(hi < n - 1)  # the rows with a row past the guess
        near = _gap_kernel(np.concatenate((key - key[hi], key[on] - key[hi[on] + 1])), metric, stats) <= epsilon
        back, ahead = np.flatnonzero(~near[:n]), on[near[on] & near[n:]]
        rows, step = np.concatenate((back, ahead)), np.repeat([-1, 1], [back.size, ahead.size])
        if not rows.size:
            return hi
        a = np.concatenate((back, np.searchsorted(key, key[hi[ahead] + 1], side="right") - 1))
        b = np.concatenate((np.searchsorted(key, key[hi[back]]), np.full(ahead.size, n)))
        hi[rows] = a
        while (left := b - a > 1).any():
            rows, a, b, step = rows[left], a[left], b[left], step[left]
            p = np.where(step > 0, a, b) + step
            gallop = (a < p) & (p < b)
            p = np.where(gallop, p, (a + b) // 2)
            near = _gap_kernel(key[rows] - key[p], metric, stats) <= epsilon
            a = np.where(near, np.searchsorted(key, key[p], side="right") - 1, a)
            b = np.where(near, b, np.searchsorted(key, key[p]))
            # a gallop goes on until a probe lands past the end
            step = np.where(gallop & (near == (step > 0)), 2 * step, 0)
            hi[rows] = a
    return hi


# the row against which cdist negates one-column gaps exactly, fastest with this row first
_ORIGIN = np.zeros((1, 1))


def _gap_kernel(gaps: np.ndarray, metric: str, stats: RunStats | None) -> np.ndarray:
    """The kernel of the one-column pairs whose differences are ``gaps``.
    With one column the kernel is an even function of the difference alone,
    and cdist negates it exactly, so each value is its pair's bit for bit
    and counts in ``stats`` as one cell at D = 1."""
    return _distance_block(_ORIGIN, gaps[:, None], metric, stats)[0]


def _core_blocks(points: PreparedPoints, lo: np.ndarray, hi: np.ndarray, rows: np.ndarray, cores: np.ndarray,
                 epsilon: float, stats: RunStats | None):
    """Blocks of the ascending indices ``rows`` against the core points
    ``cores`` (ascending) they can be within ``epsilon`` of: yields each
    block, its window of ``cores`` and the block's ``near`` mask, and skips
    an empty window. The key balls [lo, hi] hold the balls and never move
    back, so a block's window is the core points from the key ball of its
    first row to that of its last."""
    step = _block_rows(max(1, cores.size))
    for s in range(0, rows.size, step):
        block = rows[s : s + step]
        cols = cores[np.searchsorted(cores, lo[block[0]]) : np.searchsorted(cores, hi[block[-1]], side="right")]
        if cols.size:
            yield block, cols, points._block(block, cols, stats) <= epsilon


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
    starts = np.flatnonzero(np.concatenate(([True], roots[1:] != roots[:-1])))
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
    O(N^2) time, memory O(N) plus one block of ``_BLOCK_CELLS`` cells, reused
    by every step.
    """

    def __init__(self, points, min_pts: int, metric: str = "euclidean"):
        x = _validate(points, metric)
        _check_min_pts(min_pts)
        n = len(x)
        core = np.full(n, np.inf)
        if min_pts <= n:
            step = _block_rows(n)
            buffer = np.empty((min(step, n), n))
            for s in range(0, n, step):
                block = _distance_block(x[s : s + step], x, metric, None, buffer[: n - s])
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
        """The ``n_clusters`` of ``dbscan(points, epsilon, min_pts, metric)``."""
        return _count_at_most(self._core, epsilon) - _count_at_most(self._edges, epsilon)

    def noise(self, epsilon: float) -> float:
        """The noise fraction ``n_noise / N`` of ``dbscan(points, epsilon, min_pts, metric)``."""
        return (self.n_points - _count_at_most(self._reach, epsilon)) / self.n_points


def _count_at_most(ascending: np.ndarray, epsilon: float) -> int:
    """How many values are <= epsilon: the closed ball."""
    _check_epsilon(epsilon)
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
