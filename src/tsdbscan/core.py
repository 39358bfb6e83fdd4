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
the max(``min_pts``, block rows) columns before it (block rows at most
``_block_rows(N)`` here, however many the block holds), and skips the far
rest of its window once its rows and those far columns are all core in
one tree (compare Gan & Tao, "DBSCAN Revisited: Mis-Claim, Un-Fixability,
and Approximation", 2015, whose dense cells make points core without
range queries). Until then the nearest chunk doubles, and a block whose
far columns are not yet core in one tree meets its whole window at once.
A pair seen while an end was not yet core is left out, and that end is
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
it is a slice or a gather of that matrix. Otherwise, on a set a caller
prepared (each ternary search prepares its rows once), the first run that
needs a block builds farthest-first groups, ceil(sqrt(N / 2)) centres with
the radius of each group (Gonzalez, 1985), unless its scale rules them
out (``_Groups``). Every run on a set with groups runs the group bound
(``_plan``), in which the rows run in the order of their groups, each
group in the fewest blocks that fit one block's cells against the
group's window, and a block of one group's rows meets only the columns
of the groups whose centres lie within ``epsilon`` plus both radii, each
cut to the block's key window. On high-dimensional data, where one
coordinate rules out few pairs, that is far fewer. A margin covers the
kernel's rounding, so no pair within ``epsilon`` is left out. Every other
run, on a matrix that ``dbscan`` prepares for its one run (which builds
no groups) or on a set with no groups, runs the key window. That is the
same plan (``_GroupPlan``) with every row in one group, so the counts
pass, its skip rule, the late re-check and the border pass are one code
on either plan's columns; the key window's blocks are ``_block_rows(N)``
sorted rows, laid out once per set.

With one column the key ball is the ball itself, and a point's count is
its run's length. The clusters are the runs of core points each within
``epsilon`` of the one before, and a border point takes the smaller id of
the nearest core point on each side within ``epsilon``: no distance block
is computed. Each kernel value on the key is its pair's bit for bit, from
the pair's difference (``_gap_kernel``), and counts as one cell at D = 1.
"""

from __future__ import annotations

import math
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
    Otherwise the first run on a set a caller prepared that needs a block
    builds the set's groups, once: each of its ceil(sqrt(N / 2)) centres at
    most against all N rows, N x D cells a centre. A run on the group plan
    computes its blocks against the kept groups' columns instead of the
    key window's, counted the same way, rows x cols x D; its blocks are
    sized by their group's window, so they hold more rows at low D, and
    the first nearest chunk of each holds at most max(``min_pts``,
    ``_block_rows(N)``) columns before its rows.
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
    depends on its pair alone. Otherwise, on a set a caller prepared for
    many runs, that first run builds the set's farthest-first groups
    (``_farthest_first``), counted in its ``stats``, and every run probes
    through them (``_plan``). One column needs no block.
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
        self._whole = None  # the set as one group, for the key window
        self._groups = None  # False once the scale rules groups out

    def __len__(self) -> int:
        return self.order.size

    def _block(self, rows, cols, stats: RunStats | None) -> np.ndarray:
        """The kernel of the sorted rows ``rows`` against ``cols``: two
        slices, or ascending index arrays."""
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
        if isinstance(rows, slice) or isinstance(cols, slice):
            return self._matrix[rows, cols]
        return self._matrix[np.ix_(rows, cols)]

    def _grouping(self, stats: RunStats | None) -> _Groups | None:
        """The set's farthest-first groups, built on first use, or None where
        the scale rules them out (see :class:`_Groups`)."""
        if self._groups is None:
            top = float(np.abs(self.x).max())
            self._groups = _SAFE_LOW <= top <= _SAFE_HIGH and _farthest_first(self, stats)
        return self._groups or None


# the scales of the coordinates at which the group bound runs: below
# 2^450 no difference, square or sum of squares overflows, and above 2^-450
# the absolute slack _GROUP_TINY is far below the distances; elsewhere every
# run keeps the key window
_SAFE_LOW, _SAFE_HIGH = 2.0 ** -450, 2.0 ** 450
_GROUP_TINY = 2.0 ** -496


class _Groups:
    """The sorted rows of a :class:`PreparedPoints` in groups: ``x`` holds
    them ordered by group and then by the sort key, ``pos`` the sorted index
    of each, ``order`` their caller index, ``starts`` the groups' bounds and
    ``key`` = group * N + ``pos`` (ascending, so one ``searchsorted`` finds
    a run of sorted indices in any group). Row ``i`` lies in the key ball of
    row ``j`` exactly when ``pos[i]`` lies in ``[lo[pos[j]], hi[pos[j]]]``.

    With no ``group``, the set is one group, its sorted rows themselves,
    whose blocks read the set's cached matrix: the key window, whose
    ``layout`` (each block's rows [s, e), one range a block) does not
    depend on the radius and is built here once. The groups
    keep no reference to the set, which holds them, so a set is freed with
    its last reference rather than by the cycle collector. Otherwise
    ``group`` is each sorted row's group, and ``_farthest_first`` sets
    ``radius``, each group's largest distance from its centre, and
    ``between``, the centres' distances.

    **Exactness.** Write d for the exact distance of two stored rows (the
    unit rows under cosine) and d^ for the computed one. Every term of the
    kernel's sum is non-negative, so while the sum of squares stays above
    2^-1000, d^ = d (1 + t) with |t| <= (D + 4) u, u = 2^-53: each
    difference, square and sum rounds once, relative to the whole sum, and
    the square root halves the error of its argument and rounds once
    (manhattan sums absolute differences the same way). Below that, both d
    and d^ are under 2^-499, so |d^ - d| <= 2^-499 in any case. Under
    cosine the kernel is (|u - v|^2 / 2)^, clipped at 2; a pair within
    ``epsilon`` there has chord d <= sqrt(2 epsilon) (1 + (D + 4) u): either
    its kernel is unclipped, or epsilon >= 2 while unit rows (to a few ulps)
    lie within 2 of each other. So with ``reach`` epsilon, or sqrt(2
    epsilon) under cosine, a pair p in A and q in B that the kernel puts
    within ``epsilon`` satisfies, by the triangle inequality on the exact d,

        d^(c_A, c_B) (1 - k) - r_A (1 + k) - r_B (1 + k) - 3 2^-499
            <= d(c_A, c_B) - d(c_A, p) - d(c_B, q) <= d(p, q)
            <= reach (1 + k) + 2^-499,

    with k = (D + 4) u + u (the square root of ``reach``). ``candidates``
    rules the pair of groups out only when d^(c_A, c_B) (1 - m) exceeds
    (reach + r_A + r_B) (1 + m) + 2^-496, with m = (D + 8) 2^-51: m covers k
    and the test's own four roundings, and 2^-496 the absolute terms. So no
    pair within ``epsilon`` lies in two groups ruled out, and every kernel
    value a run compares is still its own pair's, from ``_distance_block``.
    A sum that could overflow would void the relative bound, but
    coordinates of magnitude up to 2^450 keep every difference, square and
    sum finite, so every centre distance and radius is finite too; and
    ``PreparedPoints._grouping`` builds no groups outside [2^-450, 2^450].
    """

    def __init__(self, points: PreparedPoints, group: np.ndarray | None = None):
        n = len(points)
        self.metric = points.metric
        if group is None:
            self.pos, self.x, self.order = np.arange(n), points.x, points.order
            self.key, self.sizes = self.pos, np.array([n])
            # one group's window is all N rows at every radius, so its
            # blocks are _block_rows(N) rows, laid out once per set
            step = _block_rows(n)
            s = np.arange(0, n, step)
            self.layout = s, np.minimum(s + step, n), np.arange(s.size + 1)
        else:
            self.layout = None
            self.pos = np.argsort(group, kind="stable")
            self.x, self.order = points.x[self.pos], points.order[self.pos]
            self.key = group[self.pos] * n + self.pos
            self.sizes = np.bincount(group)
        self.starts = np.concatenate(([0], np.cumsum(self.sizes)))
        self.radius = self.between = None

    def candidates(self, epsilon: float) -> np.ndarray:
        """G x G: the pairs of groups that may hold a pair within
        ``epsilon`` (see the class docstring)."""
        reach = math.sqrt(2.0 * epsilon) if self.metric == "cosine" else epsilon
        r, m = self.radius, (self.x.shape[1] + 8) * 2.0 ** -51
        with np.errstate(over="ignore"):
            far = self.between * (1 - m) > (reach + r[:, None] + r) * (1 + m) + _GROUP_TINY
        return ~far


def _farthest_first(points: PreparedPoints, stats: RunStats | None) -> _Groups:
    """Farthest-first (k-center) groups of the sorted rows (Gonzalez,
    "Clustering to minimize the maximum intercluster distance", 1985): the
    first centre is row 0, each next one the row farthest from the centres
    so far, ceil(sqrt(N / 2)) of them at most, and each row joins its
    nearest centre. Each step computes its centre against all rows through
    ``_distance_block``, N x D cells in ``stats``. The distances are
    euclidean under euclidean and cosine (the chord |u - v| of the unit
    rows) and manhattan under manhattan, all metrics."""
    x = points.x
    n = len(x)
    kernel = "manhattan" if points.metric == "manhattan" else "euclidean"
    # ceil(sqrt(N / 2)) groups: each is one block or more, so fewer
    # groups run fewer blocks, and too few prune little. Over the probes on
    # grouped sets of tune's and tse's searches on the 2000 x 16 and
    # 8000 x 2 blob sets, the group plan took 1.1-1.3x as long with
    # ceil(sqrt(N)) groups at D <= 16, and ceil(sqrt(N / 8)), 16 groups
    # for 20 blobs at N = 2000, took 2.8-5.7x as long at D >= 13
    most = math.isqrt((n - 1) // 2) + 1
    dist = _distance_block(x[:1], x, kernel, stats)[0]
    group = np.zeros(n, dtype=np.intp)
    centres = [0]
    between = np.zeros((most, most))
    for g in range(1, most):
        c = int(np.argmax(dist))
        if dist[c] == 0:  # every row is a centre's copy
            break
        new = _distance_block(x[c : c + 1], x, kernel, stats)[0]
        between[g, :g] = new[centres]
        np.copyto(group, g, where=new < dist)
        np.minimum(dist, new, out=dist)
        centres.append(c)
    size = len(centres)
    between = between[:size, :size]
    between += between.T  # each sum adds 0 to a distance: exact
    groups = _Groups(points, group)
    # a centre keeps its own group (distance 0), so no group is empty
    groups.radius = np.maximum.reduceat(dist[groups.pos], groups.starts[:-1])
    groups.between = between
    return groups


class _GroupPlan:
    """The rows of ``groups`` in the order of their groups, each group in
    the fewest blocks of equal rows that fit ``_BLOCK_CELLS`` against the
    group's whole window (the last block may hold fewer). A block of group
    A's rows [s, e) meets the columns of the groups B < A that ``keep[A]``
    keeps, and of A up to e, each cut to the block's key window, as a few
    ranges, all found at once, before any block. A block's window lies in
    its group's, so the block fits, unless it is one row. A set of rows of
    one group meets the kept groups on both sides, cut the same way. A set
    with groups always runs this plan on them (``_plan``). On one group, with
    ``keep`` [[True]], this is the key window: the group's window is all N
    rows, so a block is ``_block_rows(N)`` sorted rows [s, e), laid out
    once per set, and meets the columns [lo_s, e); a set of rows meets the
    columns from the key ball of its first row to that of its last."""

    def __init__(self, points: PreparedPoints, groups: _Groups, lo: np.ndarray, hi: np.ndarray,
                 keep: np.ndarray):
        self.points, self.groups, self.lo, self.hi, self.keep = points, groups, lo, hi, keep
        self.order = groups.order
        if groups.layout is not None:
            self.s, self.e, self.bounds = groups.layout
            self.first, self.stop = lo[self.s], self.e
        else:
            self._size_blocks()

    def _size_blocks(self) -> None:
        """Each group's blocks, sized by the group's window, and each
        block's ranges."""
        g = self.groups
        # each group's kept groups B <= A, ascending, A last (a group always
        # keeps itself), in the key window of the whole group
        group, kept = np.nonzero(np.tril(self.keep))
        bounds = np.searchsorted(group, np.arange(g.sizes.size + 1))
        heads, ends = bounds[:-1], bounds[1:]
        first, stop = self._window(kept, g.starts[group], g.starts[group + 1] - 1)
        stop[ends - 1] = g.starts[1:]
        step = np.maximum(1, _BLOCK_CELLS // np.add.reduceat(stop - first, heads))
        counts = -(-g.sizes // step)
        # block j holds the rows [s[j], e[j]) of group block_group[j], and
        # meets that group's kept groups
        block_group = np.repeat(np.arange(counts.size), counts)
        nth = np.arange(block_group.size) - (np.cumsum(counts) - counts)[block_group]
        self.s = g.starts[block_group] + nth * step[block_group]
        self.e = np.minimum(self.s + step[block_group], g.starts[block_group + 1])
        pairs = (ends - heads)[block_group]
        self.bounds = np.concatenate(([0], np.cumsum(pairs)))
        block = np.repeat(np.arange(block_group.size), pairs)
        kept = kept[_spans(heads[block_group], ends[block_group])]
        self.first, self.stop = self._window(kept, self.s[block], self.e[block] - 1)
        self.stop[self.bounds[1:] - 1] = self.e

    def block(self, rows, cols, stats: RunStats | None) -> np.ndarray:
        """The kernel of the rows ``rows`` of ``groups.x`` against ``cols``:
        slices or ascending index arrays. One group is the sorted rows
        themselves, whose matrix the set may cache."""
        x = self.groups.x
        if x is self.points.x:
            return self.points._block(rows, cols, stats)
        return _distance_block(x[rows], x[cols], self.points.metric, stats)

    def _window(self, kept: np.ndarray, first, last) -> tuple:
        """The ranges of the groups ``kept`` whose sorted index is in the key
        window of the group rows ``first`` to ``last``."""
        g = self.groups
        base = kept * g.pos.size
        return (np.searchsorted(g.key, base + self.lo[g.pos[first]]),
                np.searchsorted(g.key, base + self.hi[g.pos[last]], side="right"))

    def blocks(self):
        """Each block's rows [s, e) and its window, the ascending columns it
        meets, which end with [s, e)."""
        bounds = self.bounds.tolist()
        for j, (s, e) in enumerate(zip(self.s.tolist(), self.e.tolist())):
            pairs = slice(bounds[j], bounds[j + 1])
            yield s, e, _spans(self.first[pairs], self.stop[pairs])

    def runs(self, rows: np.ndarray) -> list:
        cut = np.searchsorted(rows, self.groups.starts).tolist()
        return [rows[a:b] for a, b in zip(cut, cut[1:]) if a < b]

    def ranges(self, first: np.ndarray, last: np.ndarray) -> tuple:
        """Rows of one group in blocks from ``first[j]`` to ``last[j]``:
        block j meets the ranges [starts[j, k], stops[j, k])."""
        a = np.searchsorted(self.groups.starts, first[0], side="right") - 1
        return self._window(np.flatnonzero(self.keep[a]), first[:, None], last[:, None])


def _key_window(points: PreparedPoints, lo: np.ndarray, hi: np.ndarray) -> _GroupPlan:
    """The key window: the plan of the set as one group, a layout the set
    keeps for its later runs."""
    if points._whole is None:
        points._whole = _Groups(points)
    return _GroupPlan(points, points._whole, lo, hi, np.ones((1, 1), dtype=bool))


def _as_slice(cols: np.ndarray):
    """Ascending distinct indices ``cols`` as a slice when they are one
    range, which numpy reads as a view rather than a gather; else ``cols``."""
    if cols.size and cols[-1] - cols[0] == cols.size - 1:
        return slice(cols[0], cols[-1] + 1)
    return cols


def _spans(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The ascending indices of the ranges [starts[k], stops[k]), k >= 1 of them."""
    if starts.size == 1:
        return np.arange(starts[0], stops[0])
    lengths = stops - starts
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - lengths), lengths)


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
    On a prepared set too large for one block, a run instead takes the rows
    by farthest-first group where the scale allows, each block meeting only
    the groups it can reach (see ``_plan``); labels, roles and counts are
    the same either way.
    With one column the run is the ball, so no distance block is computed.
    The labeling knows its cluster and noise counts at once, and numbers
    ``labels`` and ``roles`` only when one of them is first read.
    """
    shared = isinstance(points, PreparedPoints)
    if not shared:
        points = PreparedPoints(points, metric)
    elif points.metric != metric:
        raise ValueError(f"points prepared for metric {points.metric!r}, not {metric!r}")
    _check_epsilon(epsilon)
    _check_min_pts(min_pts)
    n = len(points)
    if stats is not None:
        stats.dbscan_invocations += 1

    # every pass below runs on the rows in the order of its plan, sorted or
    # grouped, scattered back through the plan's ``order`` at the end. The
    # kernel is symmetric bit for bit, so sorted row j <= i lies in the key
    # ball of i exactly when i lies in that of j; and hi never decreases
    hi = _ball_ends(points.key, epsilon, metric, stats)
    lo = np.searchsorted(hi, np.arange(n))
    if points.x.shape[1] == 1:
        order = points.order
        core, parent, border_blocks = _one_column(lo, hi, min_pts)
    else:
        plan = _plan(points, lo, hi, epsilon, shared, stats)
        order = plan.order
        core, parent, border_blocks = _windowed(plan, epsilon, min_pts, stats)

    # the clusters are the forest's trees of core points; a border point is in
    # a core point's ball, and noise in none. Each border point keeps the
    # smallest caller index of the trees in its ball, by which labels number
    # the clusters on first read
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


def _plan(points: PreparedPoints, lo: np.ndarray, hi: np.ndarray, epsilon: float, shared: bool,
          stats: RunStats | None):
    """The plan of a run's blocks, one per run: the group bound on a set a
    caller prepared whose N^2 exceeds one block and whose scale allows
    groups (``PreparedPoints._grouping``), else the key window."""
    n = len(points)
    groups = points._grouping(stats) if shared and n * n > _BLOCK_CELLS else None
    if groups is None:
        return _key_window(points, lo, hi)
    return _GroupPlan(points, groups, lo, hi, groups.candidates(epsilon))


def _windowed(plan, epsilon: float, min_pts: int, stats: RunStats | None):
    """The counts pass and the late re-check on the rows of ``plan`` (see
    ``_GroupPlan``). Each block [s, e) of the counts pass meets its window:
    its own rows and the columns before them that the plan keeps. It meets
    the nearest chunk of its window first, at first at most
    ``_block_rows(N)`` columns before the rows however many rows the block
    holds, and stops once its rows and the columns left are core in one
    tree. Returns the core mask, the forest of the core components (each
    core point's root is its tree's smallest index), and the border blocks:
    each non-core row with a neighbour against the core points in its
    window (see ``_core_blocks``)."""
    n = plan.order.size
    nearest = _block_rows(n)
    # distances are symmetric bit for bit, so the rows [s, e) meet only
    # columns before e: the row sums count their neighbours there, and the
    # column sums give the columns before s their neighbours in [s, e)
    counts = np.zeros(n, dtype=np.int64)
    core = np.zeros(n, dtype=bool)
    # the forest of core components; each root is its tree's smallest index,
    # and _union leaves every node pointing at its root
    parent = np.arange(n)
    late = np.zeros(n, dtype=bool)  # had a neighbour while not yet core
    for s, e, window in plan.blocks():
        # row s is at position p of the block's window
        p = window.size - (e - s)
        # the block meets its nearest columns first, from position c on:
        # itself and the max(min_pts, min(e - s, _block_rows(N))) columns
        # before it: a key-window block, of _block_rows(N) rows at most,
        # meets as many columns as it has rows, and a larger one no more,
        # or it would compute the far columns its skip leaves out. Counts
        # matter only until a point is core, and a pair of core points in one
        # tree adds no join, so once the rows and the far columns before c
        # are core in one tree, those columns can change nothing. Until then
        # the chunk before the rows doubles; a block whose far columns are
        # not core in one tree meets its whole window at once
        c = max(0, p - max(min_pts, min(e - s, nearest)))
        if c > 0:
            first, end = window[0], window[c - 1]
            if not (core[first] and parent[end] == parent[first]
                    and np.all(parent[_as_slice(window[:c])] == parent[first])):
                c = 0
        chunks, rows, b = [], None, window.size
        while True:
            cols = window[c:b]
            at = _as_slice(cols)
            near = plan.block(slice(s, e), at, stats) <= epsilon
            # the rows' core mask after the block, which their joins need, is
            # known once they are all core or the window is met; till then
            # the chunks wait, to be joined as one
            if rows is None:
                chunks.append(near)
                more = _count_true(near, axis=1)
                row_counts = more if len(chunks) == 1 else np.add(row_counts, more, dtype=np.int64)
                if c == 0 or row_counts.min() >= min_pts:
                    # counts only grow, so these points are core for good; a
                    # pair with an end not yet core is left out, and that end
                    # is late
                    counts[s:e] += row_counts
                    core[s:e] = counts[s:e] >= min_pts
                    late[s:e] |= (row_counts > 1) & ~core[s:e]
                    rows = np.flatnonzero(core[s:e])
                    if len(chunks) > 1:
                        near, b = np.concatenate(chunks[::-1], axis=1), window.size
                        cols = window[c:b]
                        at = _as_slice(cols)
            if rows is not None:
                m = min(b, p)
                before = _as_slice(window[c:m])
                col_counts = _count_true(near[:, : m - c], axis=0)
                counts[before] += col_counts
                core[before] = counts[before] >= min_pts
                late[before] |= (col_counts > 0) & ~core[before]
                joined = rows
                if joined.size < e - s:
                    near = near[joined]
                if not (met := core[at]).all():
                    near &= met
                if b <= p:  # off the diagonal a row may meet no core column
                    hit = near.any(axis=1)
                    joined, near = joined[hit], near[hit]
                if joined.size:
                    _join(parent[:e], joined + s, cols, near)
                if c == 0 or np.all(parent[s:e] == parent[first]):
                    break
            b, c = c, max(0, 2 * c - p)

    # each late core point meets the core points in its window again, for
    # the pairs the pass left out, unless those already form one tree
    cores = np.flatnonzero(core)
    if np.any(parent[cores] != parent[cores[:1]]):
        for rows, cols, near in _core_blocks(plan, cores[late[cores]], cores, epsilon, stats):
            _join(parent, rows, cols, near)
    border = np.flatnonzero(~core & (counts > 1))
    return core, parent, _core_blocks(plan, border, cores, epsilon, stats)


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
    guess from the keys alone, the rows whose gap is at most the gap at
    which the kernel reaches ``epsilon`` (sqrt(2 epsilon) under cosine,
    where it is gap^2 / 2), on its pair and on the next row's. A row that
    either check refutes searches the bracket [a, b) they leave, a near and
    b far or n: it gallops from the guess in doubling steps until a probe
    lands past the end, then halves, in O(log N) checks, one call a round
    for all rows left. A probe moves the bracket across its whole run of
    equal keys, which are equally far. A sum or gap that overflows is inf,
    as cdist's difference of the pair is, and warns of nothing."""
    n = key.size
    reach = math.sqrt(2.0 * epsilon) if metric == "cosine" else epsilon
    with np.errstate(over="ignore"):
        hi = np.searchsorted(key, key + reach, side="right") - 1
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


def _core_blocks(plan, rows: np.ndarray, cores: np.ndarray, epsilon: float, stats: RunStats | None):
    """Blocks of the ascending indices ``rows`` against the core points
    ``cores`` (ascending) they can be within ``epsilon`` of: yields each
    block, its window of ``cores`` and the block's ``near`` mask, and skips
    an empty window. The plan splits the rows into runs that share one rule
    (``runs``), and gives the blocks of a run their columns as ranges, all
    at once (``ranges``): for the key window, the one range from the key
    ball of the block's first row to that of its last."""
    step = _block_rows(max(1, cores.size))
    for run in plan.runs(rows):
        last = np.minimum(np.arange(step, run.size + step, step), run.size) - 1
        starts, stops = plan.ranges(run[::step], run[last])
        a, b = np.searchsorted(cores, starts), np.searchsorted(cores, stops)
        for j, s in enumerate(range(0, run.size, step)):
            cols = cores[_spans(a[j], b[j])]
            if cols.size:
                block = run[s : s + step]
                yield block, cols, plan.block(block, cols, stats) <= epsilon


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
    the smaller, and let the roots just hooked jump among themselves to
    their new roots, until every pair shares a root. A root hooked in one
    round may point at a root that a later round hooks, so at the end all
    the roots hooked in any round jump among themselves once more; then one
    gather points every node at its root. Takes and leaves every node
    pointing at its root. Every parent index is at most its node's, so any
    prefix of the forest is a forest."""
    ra, rb = parent[a], parent[b]
    hooked = []
    while (apart := ra != rb).any():
        high = np.maximum(ra[apart], rb[apart])
        low = np.minimum(ra[apart], rb[apart])
        np.minimum.at(parent, high, low)
        hooked.append(high)
        # a hooked root's new parent is smaller, a root or hooked itself
        rb = parent[high]
        while not np.array_equal(up := parent[rb], rb):
            parent[high] = rb = up
        ra = parent.take(low, out=low)
    if len(hooked) > 1:
        high = np.concatenate(hooked)
        top = parent[high]
        while not np.array_equal(up := parent[top], top):
            parent[high] = top = up
    if hooked:
        parent[:] = parent[parent]


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
