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
Each chunk is counted and joined as soon as it is computed. A pair seen
while an end was not yet core is left out, and that end is late: it had
a neighbour while not yet core, a column or a block's own row that turns
core only in a later chunk. After the pass, unless the core points
already form one tree, each late core point meets the core points in its
window once more. The border pass then finds the core points in the
ball of each non-core point with a neighbour. These two
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
runs at different radii share. On a set a caller prepared whose N^2
fits one block, and on any set a caller prepared with one column, a run
needs no block at all: the set builds its ``KCurve`` at a ``min_pts``
once, from the whole distance matrix of its rows, which the build
computes and drops, or from the sorted keys on one column, and each run
reads its cluster and noise counts off it, the very counts its passes
would give, and runs the passes only when its labels are first read.
So does every run on a set with groups that a search stage prepared
for its own probes (``search._prober``): the first run builds the set's
curve, by Borůvka over its groups.
Otherwise, on a set a caller prepared (the final search's, which the
final clustering reuses), the first run that
needs a block builds farthest-first groups, ceil(sqrt(N / 2)) centres with
the radius of each group (Gonzalez, 1985), unless its scale rules them
out (``_Groups``). Every run on a set with groups runs the group bound
(``_plan``), in which the rows run in the order of their groups, each
group in the fewest blocks that fit one block's cells against the
group's window, and a block of one group's rows meets only the columns
of the groups whose centres lie within ``epsilon`` plus both radii, each
cut to the block's key window. On high-dimensional data, where one
coordinate rules out few pairs, that is far fewer. A margin covers the
kernel's rounding, so no pair within ``epsilon`` is left out. The same
bound the other way round puts a pair of groups inside when their
centres' distance plus both radii, with the margin, is within
``epsilon``: every pair there is within it, so no block meets it. Each
row's count starts at the sizes of the groups its group is inside with,
itself among them when its group is inside itself. The core points of
such pairs join at group level, before the pass by the counts they start
with and after it by the final core mask, and a border point takes the
core points of its group's inside partners as it takes those of its
computed columns (the dense cells of Gan & Tao, above, and the inclusion
and exclusion of Gray & Moore's dual-tree range counts, "N-Body Problems
in Statistical Learning", 2001). Every other
run, on a matrix that ``dbscan`` prepares for its one run (which builds
no groups) or on a set with no groups, and the pass that a first read of
labels runs on a set whose N^2 fits one block, runs the key window. That is the
same plan (``_GroupPlan``) with every row in one group, so the counts
pass, its skip rule, the late re-check and the border pass are one code
on either plan's columns; the key window's blocks are ``_block_rows(N)``
sorted rows.

With one column the key ball is the ball itself, and a point's count is
its run's length. The clusters are the runs of core points each within
``epsilon`` of the one before, and a border point takes the smaller id of
the nearest core point on each side within ``epsilon``: no distance block
is computed. Each kernel value on the key is its pair's bit for bit, from
the pair's difference (``_gap_kernel``), and counts as one cell at D = 1.
The same order gives the one-column curve in O(N log N): a point's core
distance, the least radius that joins it to a core point before it, and
the least that puts it in a core point's ball, each one kernel value
(``_one_column_radii``), with no distance block either.

On two columns or more the curve is one minimum spanning tree over the
mutual-reachability weights, built by Borůvka (``_boruvka_radii``): on
the whole matrix, contracted after each round, when N^2 fits one block,
and otherwise on the farthest-first groups, whose bounds on every kernel
value (``_Groups.bounds``) leave out the pairs of groups that cannot set
a core distance, a reach radius or a tree's lightest edge.
"""

from __future__ import annotations

import math
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
    points. On a set a caller prepared whose N^2 exceeds one block, with two
    columns or more, the first run that needs a block builds the set's
    groups, once: each of its ceil(sqrt(N / 2)) centres at
    most against all N rows, N x D cells a centre. A run on the group plan
    computes its blocks against the kept groups' columns instead of the
    key window's, counted the same way, rows x cols x D; its blocks are
    sized by their group's window, so they hold more rows at low D, and
    the first nearest chunk of each holds at most max(``min_pts``,
    ``_block_rows(N)``) columns before its rows. A pair of groups whose
    every pair is within the radius (``_Groups.pairs``) counts and joins
    with no cell, so on such a set the counter falls with the radius's
    share of inside pairs, while each cell it counts is still one computed
    kernel value. A run that reads its counts off a set's curve (see
    ``dbscan``) checks no ball end and computes no cell but the curve's
    own, in the run that builds it; a first read of its labels runs the
    pass then, which adds its ball-end cells and its blocks to the run's
    ``stats``. ``dbscan_invocations`` counts the runs, read off a curve
    or not. ``curve_builds`` counts :class:`KCurve` builds: each of
    ``sweep_curve``, and each a prepared set makes for a ``min_pts``, in
    the run that first needs it. A build runs no DBSCAN. A sweep's build
    computes its distances uncounted. A prepared set's build, in the
    ``stats`` of the run that builds it, computes its whole matrix in one
    call, N^2 x D cells, on two columns or more, and on one column at most
    3N kernel values, one cell each at D = 1; when ``min_pts`` > N, where
    no point can be core, it computes none. Those are the only cells a
    search on such a set counts until a run's labels are read. A build
    on a set whose N^2 exceeds one block counts the groups it builds, if
    no run has, as a run does, and each block of Borůvka's, rows x cols x
    D, the same pair again in each round that meets it. Such a set builds
    its curve in a search's first probe when the search prepared it
    (``search._prober``): that search counts the group build and the
    curve's blocks, and no cell after them, and adds one to
    ``curve_builds``.
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
    (``_label_points(*forest())``): a probe that reads only the counts
    builds no per-point array. ``forest`` returns the run's forest, which a
    run that read its counts off the set's curve computes only then.
    """

    def __init__(self, n_clusters: int, n_noise: int, forest):
        self.n_clusters, self.n_noise = n_clusters, n_noise
        self._labels = self._roles = None
        self._deferred = forest

    def _build(self) -> None:
        if self._deferred is not None:
            self._labels, self._roles = _label_points(*self._deferred())
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
    """Rows with a nonzero entry: ``_unit_rows`` scales each of them to unit
    length, also where its squared norm underflows to 0 or overflows."""
    return np.any(x != 0, axis=1)


def _validate(points, metric: str) -> np.ndarray:
    """validate_points plus the metric; under cosine, rejects rows with no
    direction and returns the rows scaled to unit length."""
    x = validate_points(points)
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    if metric == "cosine":
        if not np.all(_has_direction(x)):
            raise ValueError("cosine distance is undefined for zero vectors")
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


def _distance_block(x_rows: np.ndarray, x: np.ndarray, metric: str, stats: RunStats | None) -> np.ndarray:
    """Pairwise distances of rows from ``_validate``. Cosine 1 - cos =
    |u - v|^2 / 2 on unit rows, which is exactly 0 between identical rows
    and clipped to 2, which rounding exceeds by an ulp on opposite rows.
    Symmetric bit for bit: both orders of a pair sum the same per-dimension
    terms in the same order."""
    d = cdist(x_rows, x, metric=_CDIST_NAME[metric])
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

    On a set a caller prepared whose N^2 fits one block
    (``_BLOCK_CELLS``), or that has one column at any N, a run reads its
    counts off the set's :class:`KCurve` for its ``min_pts``, built by the
    first run that needs it, from the whole matrix of the sorted rows,
    computed in the build, or on one column from ``key``, with its kernel
    values counted in that run's ``stats``; the build counts in the run's
    ``curve_builds``, and the curve is kept, not the matrix. So does a set
    with groups that a search stage prepared (``_reads_curve``, set by
    ``search._prober``), with its curve built over its groups. Otherwise, on
    a set a caller prepared for many runs, the first run that needs a
    block builds the set's farthest-first groups (``_farthest_first``),
    counted in its ``stats``, and every run probes through them
    (``_plan``), as does a :class:`KCurve` built on the set, which builds
    them if no run has. The set keeps nothing else: every other run builds
    its plan afresh and computes its own blocks, and :class:`KCurve` takes
    its rows as ``dbscan`` does (``_prepared``).
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
        self._curves = {}  # min_pts -> the set's KCurve
        self._groups = None  # False once the scale rules groups out
        # True on a search stage's own set: where it has groups, every run
        # reads its counts off the curve (``search._prober``)
        self._reads_curve = False

    def __len__(self) -> int:
        return self.order.size

    def _curve(self, min_pts: int, stats: RunStats | None) -> KCurve:
        """The set's curve at ``min_pts``, built on first use, with the
        build's cells counted in ``stats``."""
        curve = self._curves.get(min_pts)
        if curve is None:
            curve = self._curves[min_pts] = KCurve(self, min_pts, self.metric, stats)
            if stats is not None:
                stats.curve_builds += 1
        return curve

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
    ``group`` is each sorted row's group. One group is the set's sorted
    rows themselves, ``x`` the set's own, not a copy. The groups keep no
    reference to the set, which may hold them, so a set is freed with its
    last reference rather than by the cycle collector. ``_farthest_first`` sets ``radius``, each group's
    largest distance from its centre, and ``between``, the centres'
    distances.

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

    with k = (D + 4) u + u (the square root of ``reach``). ``pairs`` rules
    the pair of groups out only when d^(c_A, c_B) (1 - m) exceeds
    (reach + r_A + r_B) (1 + m) + 2^-496, with m = (D + 8) 2^-51: m covers k
    and the test's own four roundings, and 2^-496 the absolute terms. So no
    pair within ``epsilon`` lies in two groups ruled out, and every kernel
    value a run compares is still its own pair's, from ``_distance_block``.

    **Inclusion.** The same bounds the other way round put every pair of
    A and B within ``epsilon``. By the triangle inequality on the exact d,

        d(p, q) <= d(c_A, c_B) + d(c_A, p) + d(c_B, q)
            <= (d^(c_A, c_B) + r_A + r_B) (1 + k) + 3 2^-499,

    and the kernel rounds d(p, q) up by at most (D + 4) u relative and
    2^-499 absolute. ``pairs`` puts the pair of groups inside only when
    (d^(c_A, c_B) + r_A + r_B) (1 + m) + 2^-496 is at most reach (1 - m):
    m again covers both relative errors, the test's own roundings and, on
    the right, that of sqrt(2 epsilon), and 2^-496 the absolute terms.
    Under cosine that bounds the chord of p and q by sqrt(2 epsilon) (1 -
    m), so the kernel, (|p - q|^2 / 2)^ with its (D + 4) u of rounding and
    at most D 2^-1075 from squares that underflow, is at most ``epsilon``:
    the test needs reach >= 2^-496, so ``epsilon`` >= 2^-993, far above
    those absolute terms. At ``epsilon`` >= 2 the clip puts every pair
    within it. So every kernel value of an inside
    pair, were it computed, would be at most ``epsilon``: a run counts and
    joins such a pair without computing it.
    A sum that could overflow would void the relative bound, but
    coordinates of magnitude up to 2^450 keep every difference, square and
    sum finite, so every centre distance and radius is finite too; and
    ``PreparedPoints._grouping`` builds no groups outside [2^-450, 2^450].

    **Bounds.** The curve build (``KCurve``) reads both tests as bounds on
    every kernel value of a pair of groups (``bounds``): the radius below
    which ``pairs`` rules the pair out, and the one from which it puts the
    pair inside. Each is solved from the test with some slack and kept
    only where the test itself confirms it, so they rest on the proofs
    above and on nothing else.
    """

    def __init__(self, points: PreparedPoints, group: np.ndarray):
        self.metric = points.metric
        self.pos = np.argsort(group, kind="stable")
        self.sizes = np.bincount(group)
        # one group takes the sorted rows in place, rather than a copy
        self.x = points.x if self.sizes.size == 1 else points.x[self.pos]
        self.order = points.order[self.pos]
        self.key = group[self.pos] * len(points) + self.pos
        self.starts = np.concatenate(([0], np.cumsum(self.sizes)))
        self.radius = self.between = None

    def pairs(self, epsilon) -> tuple[np.ndarray, np.ndarray]:
        """Two G x G masks: ``keep``, the pairs of groups that may hold a
        pair within ``epsilon``, and ``inside``, those whose every pair lies
        within it, a part of ``keep`` (see the class docstring).
        ``epsilon`` is one radius or a G x G array of them, one a pair."""
        cosine = self.metric == "cosine"
        reach = np.sqrt(2.0 * epsilon) if cosine else epsilon
        r, m = self.radius, (self.x.shape[1] + 8) * 2.0 ** -51
        spread = r[:, None] + r
        with np.errstate(over="ignore"):
            far = self.between * (1 - m) > (reach + spread) * (1 + m) + _GROUP_TINY
            inside = (self.between + spread) * (1 + m) + _GROUP_TINY <= reach * (1 - m)
        if cosine:  # the kernel is clipped at 2
            inside |= np.asarray(epsilon) >= 2
        return ~far, inside

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Two G x G arrays: every kernel value of a pair of groups A and B
        is at least ``low[A, B]`` and at most ``high[A, B]``. Each is the
        radius at which ``pairs`` rules the pair of groups out, or puts it
        inside, found by solving its test with some slack and then checked
        by the test itself: a ``low`` it does not rule out is 0, and a
        ``high`` it does not put inside is inf."""
        r, m = self.radius, (self.x.shape[1] + 8) * 2.0 ** -51
        spread = r[:, None] + r
        with np.errstate(over="ignore"):
            low = np.maximum(((self.between * (1 - m) - _GROUP_TINY) / (1 + m) - spread) * (1 - m), 0.0)
            high = ((self.between + spread) * (1 + m) + _GROUP_TINY) / (1 - m) * (1 + m)
            if self.metric == "cosine":  # radii of the chords: the kernel is half their square
                low, high = low * low / 2 * (1 - m), np.minimum(high * high / 2 * (1 + m), 2.0)
        low[self.pairs(low)[0]] = 0.0
        high[~self.pairs(high)[1]] = np.inf
        return low, high


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
    group's whole window (the last block may hold fewer). The groups meet
    only the pairs ``keep`` keeps and ``inside`` does not hold whole: a
    block of group A's rows [s, e) meets the columns of those groups B < A,
    and of A up to e unless A is inside itself, each cut to the block's key
    window, as a few ranges, all found at once, before any block. A group
    whose every kept pair B <= A is inside runs no block. A block's window
    lies in its group's, so the block fits, unless it is one row. A set of
    rows of one group meets those groups on both sides, cut the same way.
    A set with groups always runs this plan on them, and every other run on
    one group, built afresh (``_plan``). On one group, with ``keep``
    [[True]] and ``inside`` [[False]], this is the key window: the group's
    window is all N rows, so a block is ``_block_rows(N)`` sorted rows
    [s, e) and meets the columns [lo_s, e); a set of rows meets the columns
    from the key ball of its first row to that of its last."""

    def __init__(self, groups: _Groups, lo: np.ndarray, hi: np.ndarray, keep: np.ndarray,
                 inside: np.ndarray):
        self.groups, self.lo, self.hi, self.inside = groups, lo, hi, inside
        self.order = groups.order
        # the pairs of groups whose cells a run computes
        self.meets = keep & ~inside
        self._size_blocks()

    def _size_blocks(self) -> None:
        """Each group's blocks, sized by the group's window, and each
        block's ranges."""
        g = self.groups
        # the groups B <= A that each group meets, ascending, A last unless
        # A is inside itself (a group always keeps itself), in the key window
        # of the whole group; a group that meets none runs no block
        group, kept = np.nonzero(np.tril(self.meets))
        runs, heads, pairs = np.unique(group, return_index=True, return_counts=True)
        ends = heads + pairs
        first, stop = self._window(kept, g.starts[group], g.starts[group + 1] - 1)
        diagonal = kept[ends - 1] == runs
        stop[ends[diagonal] - 1] = g.starts[runs[diagonal] + 1]
        width = np.add.reduceat(stop - first, heads)
        step = np.maximum(1, _BLOCK_CELLS // np.maximum(width, 1))
        counts = -(-g.sizes[runs] // step)
        # block j holds the rows [s[j], e[j]) of the group runs[run[j]], and
        # meets the groups that group meets
        run = np.repeat(np.arange(counts.size), counts)
        nth = np.arange(run.size) - (np.cumsum(counts) - counts)[run]
        self.s = g.starts[runs][run] + nth * step[run]
        self.e = np.minimum(self.s + step[run], g.starts[runs + 1][run])
        self.diagonal = diagonal[run]
        self.bounds = np.concatenate(([0], np.cumsum(pairs[run])))
        block = np.repeat(np.arange(run.size), pairs[run])
        kept = kept[_spans(heads[run], ends[run])]
        self.first, self.stop = self._window(kept, self.s[block], self.e[block] - 1)
        self.stop[self.bounds[1:][self.diagonal] - 1] = self.e[self.diagonal]

    def block(self, rows, cols, stats: RunStats | None) -> np.ndarray:
        """The kernel of the rows ``rows`` of ``groups.x`` against ``cols``:
        slices or ascending index arrays."""
        x = self.groups.x
        return _distance_block(x[rows], x[cols], self.groups.metric, stats)

    def _window(self, kept: np.ndarray, first, last) -> tuple:
        """The ranges of the groups ``kept`` whose sorted index is in the key
        window of the group rows ``first`` to ``last``."""
        g = self.groups
        base = kept * g.pos.size
        return (np.searchsorted(g.key, base + self.lo[g.pos[first]]),
                np.searchsorted(g.key, base + self.hi[g.pos[last]], side="right"))

    def blocks(self):
        """Each block's rows [s, e), its window, the ascending columns it
        meets, which end with [s, e) when the block holds its diagonal, and
        how many of them lie before s. Skips a block whose window is empty."""
        bounds = self.bounds.tolist()
        for j, (s, e, diagonal) in enumerate(zip(self.s.tolist(), self.e.tolist(), self.diagonal.tolist())):
            pairs = slice(bounds[j], bounds[j + 1])
            window = _spans(self.first[pairs], self.stop[pairs])
            if window.size:
                yield s, e, window, window.size - (e - s) if diagonal else window.size

    def runs(self, rows: np.ndarray) -> list:
        """The ascending ``rows`` split by group, leaving out the groups that
        meet no group."""
        cut = np.searchsorted(rows, self.groups.starts).tolist()
        live = self.meets.any(axis=1).tolist()
        return [rows[a:b] for a, b, met in zip(cut, cut[1:], live) if a < b and met]

    def ranges(self, first: np.ndarray, last: np.ndarray) -> tuple:
        """Rows of one group in blocks from ``first[j]`` to ``last[j]``:
        block j meets the ranges [starts[j, k], stops[j, k])."""
        a = np.searchsorted(self.groups.starts, first[0], side="right") - 1
        return self._window(np.flatnonzero(self.meets[a]), first[:, None], last[:, None])


def _as_slice(cols: np.ndarray):
    """Ascending distinct indices ``cols`` as a slice when they are one
    range, which numpy reads as a view rather than a gather; else ``cols``."""
    if cols.size and cols[-1] - cols[0] == cols.size - 1:
        return slice(cols[0], cols[-1] + 1)
    return cols


def _spans(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The ascending indices of the ranges [starts[k], stops[k])."""
    if starts.size == 1:
        return np.arange(starts[0], stops[0])
    lengths = stops - starts
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - (ends - lengths), lengths)


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
    On a prepared set with one column, or whose N^2 fits one block, or
    with groups that a search stage prepared for its own probes
    (``search._prober``), a run checks no ball end and runs no pass: its
    counts are read off the set's
    :class:`KCurve` at ``min_pts`` (``PreparedPoints._curve``), the very
    counts the pass would give, and a first read of its labels or roles
    runs the pass then, counted in ``stats``. A matrix ``dbscan`` prepares for its one run always runs
    the passes.
    The labeling knows its cluster and noise counts at once, and numbers
    ``labels`` and ``roles`` only when one of them is first read.
    """
    shared = isinstance(points, PreparedPoints)
    points = _prepared(points, metric)
    _check_epsilon(epsilon)
    _check_min_pts(min_pts)
    n = len(points)
    if stats is not None:
        stats.dbscan_invocations += 1
    if shared and (points.x.shape[1] == 1 or n * n <= _BLOCK_CELLS
                   or points._reads_curve and points._grouping(stats) is not None):
        curve = points._curve(min_pts, stats)
        return Labeling(curve.k(epsilon), curve.n_noise(epsilon),
                        lambda: _forest(points, epsilon, min_pts, shared, stats))

    # the clusters are the forest's trees of core points; a border point is in
    # a core point's ball, and noise in none. Each border point keeps the
    # smallest caller index of the trees in its ball, by which labels number
    # the clusters on first read
    forest = _forest(points, epsilon, min_pts, shared, stats)
    _, core, parent, border, _ = forest
    cores = np.flatnonzero(core)
    return Labeling(int(np.count_nonzero(parent[cores] == cores)), n - cores.size - border.size,
                    lambda: forest)


def _prepared(points, metric: str) -> PreparedPoints:
    """``points`` as a :class:`PreparedPoints` of ``metric``: a matrix is
    prepared here, and a set prepared for another metric is refused."""
    if not isinstance(points, PreparedPoints):
        return PreparedPoints(points, metric)
    if points.metric != metric:
        raise ValueError(f"points prepared for metric {points.metric!r}, not {metric!r}")
    return points


def _forest(points: PreparedPoints, epsilon: float, min_pts: int, shared: bool,
            stats: RunStats | None) -> tuple:
    """The ball ends and the passes of one run: the order of the plan's
    rows, then the returns of ``_windowed`` (``_one_column`` on one
    column)."""
    # every pass below runs on the rows in the order of its plan, sorted or
    # grouped, scattered back through the plan's ``order`` at the end. The
    # kernel is symmetric bit for bit, so sorted row j <= i lies in the key
    # ball of i exactly when i lies in that of j; and hi never decreases
    hi = _ball_ends(points.key, epsilon, points.metric, stats)
    lo = np.searchsorted(hi, np.arange(len(points)))
    if points.x.shape[1] == 1:
        return (points.order, *_one_column(points.order, lo, hi, min_pts))
    plan = _plan(points, lo, hi, epsilon, shared, stats)
    return (plan.order, *_windowed(plan, epsilon, min_pts, stats))


def _tree_first(order: np.ndarray, parent: np.ndarray, cores: np.ndarray) -> np.ndarray:
    """The smallest caller index of each tree of core points, at its root."""
    first = np.full(order.size, order.size)
    np.minimum.at(first, parent[cores], order[cores])
    return first


def _label_points(order: np.ndarray, core: np.ndarray, parent: np.ndarray, border: np.ndarray,
                  border_first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels and roles in the caller's order, from the sorted rows' core
    mask and forest: clusters are numbered by the smallest caller index
    among their core points, and each border row in ``border`` takes the
    cluster whose smallest caller index is its ``border_first``."""
    n = order.size
    cores = np.flatnonzero(core)
    first = _tree_first(order, parent, cores)
    ids = np.sort(first[cores[parent[cores] == cores]])  # one per cluster
    labels = np.full(n, NOISE, dtype=np.int64)
    labels[cores] = np.searchsorted(ids, first[parent[cores]])
    labels[border] = np.searchsorted(ids, border_first)
    roles = np.full(n, ROLE_NOISE, dtype=np.int8)
    roles[labels != NOISE] = ROLE_BORDER
    roles[core] = ROLE_CORE
    rank = np.empty_like(order)
    rank[order] = np.arange(n)
    return labels[rank], roles[rank]


def _plan(points: PreparedPoints, lo: np.ndarray, hi: np.ndarray, epsilon: float, shared: bool,
          stats: RunStats | None):
    """The plan of a run's blocks, built afresh for each run: the group bound
    on a set a caller prepared whose N^2 exceeds one block and whose scale
    allows groups (``PreparedPoints._grouping``), with the pairs of groups
    it keeps and those inside at ``epsilon`` (``_Groups.pairs``), else the
    key window, the set as one group, which keeps its one pair and holds
    none inside."""
    n = len(points)
    groups = points._grouping(stats) if shared and n * n > _BLOCK_CELLS else None
    if groups is None:
        return _GroupPlan(_Groups(points, np.zeros(n, dtype=np.intp)), lo, hi,
                          np.ones((1, 1), dtype=bool), np.zeros((1, 1), dtype=bool))
    return _GroupPlan(groups, lo, hi, *groups.pairs(epsilon))


def _windowed(plan, epsilon: float, min_pts: int, stats: RunStats | None):
    """The counts pass, the late re-check and the border pass on the rows of
    ``plan`` (see ``_GroupPlan``). Each row's count starts at the sizes of
    the groups its group is inside with, every pair there within
    ``epsilon``, and the core points these counts make join at group level
    (``_join_inside``) before any block. Each block [s, e) of the counts
    pass meets its window: its own rows, unless its group is inside
    itself, and the columns before them that the plan meets. It meets the
    nearest chunk of its window first, at first at most ``_block_rows(N)``
    columns before the rows however many rows the block holds, and stops
    once its rows and the columns left are core in one tree. After the pass
    the inside pairs join again, by the final core mask. Returns the core
    mask, the forest of the core components (each core point's root is its
    tree's smallest index), and the border points with the least over the
    core points in each one's ball of their tree's smallest caller index
    (``_tree_first``, see ``_borders``)."""
    n = plan.order.size
    nearest = _block_rows(n)
    sizes = plan.groups.sizes
    # distances are symmetric bit for bit, so the rows [s, e) meet only
    # columns before e: the row sums count their neighbours there, and the
    # column sums give the columns before s their neighbours in [s, e). A
    # row's inside pairs, its own row among them when its group is inside
    # itself, count before any block
    counts = np.repeat(plan.inside @ sizes, sizes)
    core = counts >= min_pts
    # the forest of core components; each root is its tree's smallest index,
    # and _union leaves every node pointing at its root
    parent = np.arange(n)
    # the points core by their inside pairs alone are core for good: their
    # group-level joins hold now, so the skip rule and the joins of the
    # blocks find them in one tree. These joins reach rows past any block,
    # so every join runs on the whole forest
    if core.any():
        _join_inside(plan, parent, np.flatnonzero(core))
    late = np.zeros(n, dtype=bool)  # had a neighbour while not yet core
    for s, e, window, p in plan.blocks():
        # row s is at position p of the block's window. The block meets its
        # nearest columns first, from position c on: itself and the
        # max(min_pts, min(e - s, _block_rows(N))) columns before it: a
        # key-window block, of _block_rows(N) rows at most, meets as many
        # columns as it has rows, and a larger one no more, or it would
        # compute the far columns its skip leaves out. Counts matter only
        # until a point is core, and a pair of core points in one tree adds
        # no join, so once the rows and the far columns before c are core in
        # one tree, those columns can change nothing. Until then the chunk
        # before the rows doubles; a block whose far columns are not core in
        # one tree meets its whole window at once
        c = max(0, p - max(min_pts, min(e - s, nearest)))
        if c > 0:
            first, end = window[0], window[c - 1]
            if not (core[first] and parent[end] == parent[first]
                    and np.all(parent[_as_slice(window[:c])] == parent[first])):
                c = 0
        b = window.size
        while True:
            cols = window[c:b]
            at = _as_slice(cols)
            near = plan.block(slice(s, e), at, stats) <= epsilon
            # each chunk counts, joins and flags at once. Counts only grow, so
            # a point core now is core for good; a pair with an end not yet
            # core is left out, and that end is late, whether a column or one
            # of the block's rows that a later chunk turns core. A chunk that
            # holds the diagonal counts each row once more, as its own column
            m = min(b, p)
            before = _as_slice(window[c:m])
            row_counts = _count_true(near, axis=1)
            col_counts = _count_true(near[:, : m - c], axis=0)
            counts[s:e] += row_counts
            counts[before] += col_counts
            core[s:e] = counts[s:e] >= min_pts
            core[before] = counts[before] >= min_pts
            late[s:e] |= (row_counts > (p < b)) & ~core[s:e]
            late[before] |= (col_counts > 0) & ~core[before]
            joined = np.flatnonzero(core[s:e])
            if joined.size < e - s:
                near = near[joined]
            if not (met := core[at]).all():
                near &= met
            if b <= p:  # off the diagonal a row may meet no core column
                hit = near.any(axis=1)
                joined, near = joined[hit], near[hit]
            if joined.size:
                _join(parent, joined + s, cols, near)
            if c == 0 or np.all(parent[s:e] == parent[first]):
                break
            b, c = c, max(0, 2 * c - p)

    cores = np.flatnonzero(core)
    if cores.size:
        _join_inside(plan, parent, cores)
    # each late core point meets the core points in its window again, for
    # the pairs the pass left out, unless those already form one tree. A
    # row's window leaves out its inside groups, its own among them when
    # its group is inside itself, so a row may meet no core column there
    if np.any(parent[cores] != parent[cores[:1]]):
        for rows, cols, near in _core_blocks(plan, cores[late[cores]], cores, epsilon, stats):
            hit = near.any(axis=1)
            if hit.any():
                _join(parent, rows[hit], cols, near[hit])
    border = np.flatnonzero(~core & (counts > 1))
    if not (cores.size and border.size):
        return core, parent, border[:0], border[:0]
    first = _tree_first(plan.order, parent, cores)
    # a border point of group A is within epsilon of every core point of the
    # groups A is inside with; these need not lie in one tree
    tree = np.full(n, n)
    tree[cores] = first[parent[cores]]
    least = np.minimum.reduceat(tree, plan.groups.starts[:-1])
    group = np.searchsorted(plan.groups.starts, border, side="right") - 1
    best = np.where(plan.inside, least, n).min(axis=1)[group]
    blocks = _core_blocks(plan, border, cores, epsilon, stats)
    return (core, parent) + _borders(border, best, first, parent, blocks)


def _join_inside(plan, parent: np.ndarray, cores: np.ndarray) -> None:
    """The joins of the pairs of groups ``plan.inside`` holds whole among
    the ascending points ``cores``, each core for good: every pair there is
    within ``epsilon``. So the core points of a group that is inside with a
    group holding a core point, itself included, are all within ``epsilon``
    of that point, and join the group's first core point; and the first
    core points of two groups that are inside with each other join."""
    starts = plan.groups.starts
    group = np.searchsorted(starts, cores, side="right") - 1
    held = np.zeros(starts.size - 1, dtype=bool)
    held[group] = True
    lead = cores[np.minimum(np.searchsorted(group, np.arange(held.size)), cores.size - 1)]
    inside = plan.inside & held & held[:, None]
    member = inside.any(axis=1)[group]
    a, b = np.nonzero(np.triu(inside, 1))
    _union(parent, np.concatenate((cores[member], lead[a])), np.concatenate((lead[group[member]], lead[b])))


def _borders(rows: np.ndarray, best: np.ndarray, first: np.ndarray, parent: np.ndarray, blocks) -> tuple:
    """The border points among the non-core ``rows`` and the smallest caller
    index among the trees of the core points in the ball of each: the least
    of ``best`` and, in ``blocks`` of some of ``rows`` against the core
    points near them, ``first`` of the near columns' roots."""
    n = parent.size
    for block, cols, near in blocks:
        at = np.searchsorted(rows, block)
        best[at] = np.minimum(best[at], np.where(near, first[parent[cols]], n).min(axis=1))
    found = best < n
    return rows[found], best[found]


def _one_column(order: np.ndarray, lo: np.ndarray, hi: np.ndarray, min_pts: int):
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
    border = np.flatnonzero(~core & (counts > 1))
    if not (cores.size and border.size):
        return core, parent, border[:0], border[:0]
    first = _tree_first(order, parent, cores)
    at = np.searchsorted(cores, border)
    left, right = cores[np.maximum(at - 1, 0)], cores[np.minimum(at, cores.size - 1)]
    near = np.stack(((at > 0) & (left >= lo[border]), (at < cores.size) & (right <= hi[border])), axis=1)
    blocks = [(border, np.stack((left, right), axis=1), near)]
    return (core, parent) + _borders(border, np.full(border.size, hi.size), first, parent, blocks)


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
    ``near[i, j]``; each row is near one of them. Keeps one edge per row
    and tree: the row's first near column, then, if the near columns lie
    in several trees, one for each tree the row meets."""
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
    pointing at its root."""
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
    own included). The build compares the very distances ``dbscan`` does.

    ``points`` is a matrix, or a :class:`PreparedPoints` of ``metric``,
    prepared as ``dbscan`` prepares it (``_prepared``), and the build works
    on the set's sorted rows. On two columns or more it runs Borůvka
    (``_boruvka_radii``; dual-tree Borůvka, March, Ram & Gray, KDD 2010,
    as accelerated HDBSCAN uses it, McInnes & Healy, ICDMW 2017). Every
    minimum spanning tree has the same sorted weights, so the curve is the
    one any exact tree gives, the zero-weight edges between copies kept.
    When N^2 fits one block, the build computes the rows' whole matrix in
    one call, takes each row's core distance and reach radius from it in
    blocks of rows, and turns it in place into the mutual-reachability
    weights: each round takes every tree's lightest edge, one argmin a
    row, and contracts the matrix to one row and column a tree
    (``_contracted_edges``). Otherwise it runs on the set's farthest-first
    groups (``PreparedPoints._grouping``), or where the scale rules them
    out on the rows as one group, with ``_Groups.bounds`` on every kernel
    value of each pair of groups. Each group's cap, the least upper bound
    at which the groups around it hold ``min_pts`` rows, bounds its rows'
    core distances; a block of a group's rows meets the groups whose low
    bound is within the larger of the two caps, which holds every pair
    that sets a core distance or a reach radius (reach_i <= core_i). The
    first round, each point its own tree, rides on these blocks. Each
    later round (``_group_rounds``) runs the pairs of groups by ascending
    low bound, each only while its low bound can beat some tree's lightest
    edge so far, and skips the pairs within one tree. Memory O(N) plus a
    few blocks of a sixteenth of ``_BLOCK_CELLS``, and the G x G bounds.
    On one column it works on the sorted keys
    (``_one_column_radii``): a point's ``min_pts`` nearest
    points are a window of sorted rows, and a core point joins the core
    point before it, and so its cluster, once eps reaches its join radius
    max(core_p, min over the rows q before p of max(d_pq, core_q)), which
    stands in for the tree's edges; the finite join radii are the edges of
    a minimum spanning tree. O(N log N) time, memory O(N) a level of the
    sparse table of ``_join_gaps`` (at most log2 N levels), and one kernel
    value for each of at most 3N radii. ``stats``, when given, counts the
    kernel cells the build computes, the groups' own among them when the
    build makes them; ``sweep_curve`` passes none.
    """

    def __init__(self, points, min_pts: int, metric: str = "euclidean", stats: RunStats | None = None):
        _check_min_pts(min_pts)
        points = _prepared(points, metric)
        if points.x.shape[1] == 1:
            core, edges, reach = _one_column_radii(points.key, min_pts, metric, stats)
        else:
            core, edges, reach = _boruvka_radii(points, min_pts, stats)
        self.n_points = len(points)
        self._core = np.sort(core)
        self._edges = np.sort(edges)
        self._reach = np.sort(reach)

    def k(self, epsilon: float) -> int:
        """The ``n_clusters`` of ``dbscan(points, epsilon, min_pts, metric)``."""
        return _count_at_most(self._core, epsilon) - _count_at_most(self._edges, epsilon)

    def n_noise(self, epsilon: float) -> int:
        """The ``n_noise`` of ``dbscan(points, epsilon, min_pts, metric)``."""
        return self.n_points - _count_at_most(self._reach, epsilon)

    def noise(self, epsilon: float) -> float:
        """The noise fraction ``n_noise / N`` of ``dbscan(points, epsilon, min_pts, metric)``."""
        return self.n_noise(epsilon) / self.n_points


def _count_at_most(ascending: np.ndarray, epsilon: float) -> int:
    """How many values are <= epsilon: the closed ball."""
    _check_epsilon(epsilon)
    return int(np.searchsorted(ascending, epsilon, side="right"))


def _boruvka_radii(points: PreparedPoints, min_pts: int, stats: RunStats | None) -> tuple:
    """The core distances, the edges of a minimum spanning tree over the
    mutual-reachability weights and the reach radii of the rows of
    ``points``, two columns or more, by Borůvka, with the distances
    computed into ``stats`` (see :class:`KCurve`); each in the order of the
    rows' groups, for the caller to sort. When ``min_pts`` > N no point is
    core, and no distance is computed."""
    n = len(points)
    core = np.full(n, np.inf)
    reach = np.full(n, np.inf)
    if min_pts > n:
        return core, np.full(n - 1, np.inf), reach
    groups = points._grouping(stats) if n * n > _BLOCK_CELLS else None
    if groups is None:
        groups = _Groups(points, np.zeros(n, dtype=np.intp))
        low, high = np.zeros((1, 1)), np.full((1, 1), np.inf)
    else:
        low, high = groups.bounds()
    x, metric = groups.x, groups.metric
    matrix = _distance_block(x, x, metric, stats) if n * n <= _BLOCK_CELLS else None
    # a block and its temporaries hold a sixteenth of _BLOCK_CELLS, so that
    # they stay small next to the heap a search leaves
    budget = max(1, _BLOCK_CELLS // 16)

    def kernel(s: int, e: int, cols):
        """The distances of the group rows [s, e) to the rows ``cols``."""
        if matrix is not None:
            return matrix[s:e, cols]
        return _distance_block(x[s:e], x[cols], metric, stats)

    # every pair within a group's cap lies in its blocks, and the groups
    # inside with it hold min_pts rows, so the cap bounds each of its rows'
    # core distances. A pair of groups is met up to the larger of their
    # caps, so the block that gives row v its core distance holds every
    # column j that v can bring a reach radius, max(d_vj, core_v) <=
    # core_j: each block updates its columns' reach radii
    g, sizes, starts = groups.sizes.size, groups.sizes, groups.starts
    o = np.argsort(high, axis=1, kind="stable")
    cap = high[np.arange(g), o[np.arange(g), np.argmax(np.cumsum(sizes[o], axis=1) >= min_pts, axis=1)]]
    met = ~(low > np.maximum(cap[:, None], cap))
    # without the matrix, the first round of Borůvka, where each point is
    # its own tree, rides on these blocks: a pair counts once both its core
    # distances are known, in the block of the row whose core distance
    # came last
    best = np.full(n, np.inf)
    to = np.arange(n)
    for a in range(g):
        cols = _spans(starts[:-1][met[a]], starts[1:][met[a]])
        at = _as_slice(cols)
        step = max(1, budget // cols.size)
        for s in range(starts[a], starts[a + 1], step):
            e = min(s + step, starts[a + 1])
            d = kernel(s, e, at)
            # the core distances are copied out, so the partitioned block
            # is freed at once
            core[s:e] = np.partition(d, min_pts - 1, axis=1)[:, min_pts - 1]
            w = np.maximum(d, core[s:e, None])
            reach[at] = np.minimum(reach[at], w.min(axis=0))
            if matrix is None:
                rows = np.arange(s, e)
                np.maximum(w, core[at], out=w)
                w[rows - s, np.searchsorted(cols, s) + rows - s] = np.inf
                j = w.argmin(axis=1)
                _offer(best, to, rows, w[rows - s, j], cols[j])
                i = w.argmin(axis=0)
                _offer(best, to, cols, w[i, np.arange(cols.size)], rows[i])
    if matrix is not None:
        np.maximum(matrix, core[:, None], out=matrix)
        np.maximum(matrix, core, out=matrix)
        edges = _contracted_edges(matrix, budget)
    else:
        # a row's lightest edge is sure when no pair its group left out can
        # be lighter, by their low bounds
        parent = np.arange(n)
        sure = np.flatnonzero((best < np.inf) & (best <= np.repeat(np.where(met, np.inf, low).min(axis=1), sizes)))
        edges = [_merge(parent, sure, to[sure], best[sure])]
        edges += _group_rounds(groups, kernel, core, low, parent, budget)
    # a tree that no finite edge leaves keeps inf edges
    return core, np.concatenate((*edges, np.full(n - 1 - sum(e.size for e in edges), np.inf))), reach


def _contracted_edges(weights: np.ndarray, budget: int) -> list:
    """Borůvka on the whole matrix of mutual-reachability weights, which it
    overwrites: each round takes every tree's lightest edge, one argmin a
    row, joins the trees, and contracts the matrix to one row and column a
    tree, its least weights (``_contract``). Returns the weights of the
    edges that joined trees, a list of arrays."""
    parent = np.arange(len(weights))
    nodes, edges = parent.copy(), []
    while nodes.size > 1:
        np.fill_diagonal(weights, np.inf)
        j = weights.argmin(axis=1)
        w = weights[np.arange(nodes.size), j]
        if not (finite := w < np.inf).any():
            break
        edges.append(_merge(parent, nodes[finite], nodes[j[finite]], w[finite]))
        nodes, tree = np.unique(parent[nodes], return_inverse=True)
        weights = _contract(weights, tree, nodes.size, budget)
    return edges


def _contract(weights: np.ndarray, tree: np.ndarray, size: int, budget: int) -> np.ndarray:
    """The least of ``weights`` between each pair of the ``size`` trees, row
    i and column j in tree ``tree[i]`` and ``tree[j]``, from a few rows at a
    time, each block within ``budget`` cells."""
    out = np.full((size, size), np.inf)
    order = np.argsort(tree, kind="stable")
    cuts = np.searchsorted(tree[order], np.arange(size))
    step = max(1, budget // len(weights))
    for s in range(0, len(weights), step):
        np.minimum.at(out, tree[s : s + step], np.minimum.reduceat(weights[s : s + step, order], cuts, axis=1))
    return out


def _group_rounds(groups: _Groups, kernel, core: np.ndarray, low: np.ndarray, parent: np.ndarray,
                  budget: int) -> list:
    """The rounds of Borůvka after the first on the rows of ``groups``,
    whose trees ``parent`` holds, each row pointing at its root. Each
    round finds every tree's lightest edge to another tree. The pairs of
    groups run in the order of their low bounds, and a pair runs only if
    its low bound is below the best edge so far of some tree that a row in
    either group can lighten (``_group_best``); a pair of groups of one tree
    runs not at all. A pair of groups each wholly in one tree keeps its
    least weight (``least``), which stays the lightest edge between its
    groups while their trees differ, so it runs once. Returns the weights
    of the edges that joined trees, a list of arrays."""
    g, sizes, starts = groups.sizes.size, groups.sizes, groups.starts
    n = parent.size
    a_of, b_of = np.triu_indices(g)
    by_low = np.argsort(low[a_of, b_of], kind="stable")
    a_of, b_of = a_of[by_low], b_of[by_low]
    least = np.full((g, g), np.nan)
    edges = []
    while True:
        head = parent[starts[:-1]]
        whole = np.minimum.reduceat(parent, starts[:-1]) == np.maximum.reduceat(parent, starts[:-1])
        tree = np.where(whole, head, -1)
        best = np.full(n, np.inf)
        to = np.full(n, -1)
        apart = whole[:, None] & whole & (tree[:, None] != tree)
        known = apart & ~np.isnan(least)
        ka, kb = np.nonzero(known)
        _offer(best, to, tree[ka], least[ka, kb], tree[kb])
        run = ~(whole[a_of] & whole[b_of] & (tree[a_of] == tree[b_of])) & ~known[a_of, b_of]
        bound = _group_best(best, parent, core, starts)
        for a, b in zip(a_of[run].tolist(), b_of[run].tolist()):
            if low[a, b] >= max(bound[a], bound[b]):
                continue
            cb = slice(starts[b], starts[b + 1])
            rc, step = parent[cb], max(1, budget // sizes[b])
            lightest = np.inf
            for s in range(starts[a], starts[a + 1], step):
                e = min(s + step, starts[a + 1])
                rr = parent[s:e]
                w = np.maximum(kernel(s, e, cb), core[s:e, None])
                np.maximum(w, core[cb], out=w)
                if not apart[a, b]:
                    w[rr[:, None] == rc] = np.inf
                j = w.argmin(axis=1)
                lightest = min(lightest, (weights := w[np.arange(e - s), j]).min())
                _offer(best, to, rr, weights, rc[j])
                if a != b:
                    i = w.argmin(axis=0)
                    _offer(best, to, rc, w[i, np.arange(rc.size)], rr[i])
            if apart[a, b]:
                least[a, b] = least[b, a] = lightest
            bound = _group_best(best, parent, core, starts)
        chosen = np.flatnonzero(best < np.inf)
        if not chosen.size:
            return edges
        edges.append(_merge(parent, chosen, to[chosen], best[chosen]))


def _group_best(best: np.ndarray, parent: np.ndarray, core: np.ndarray, starts: np.ndarray) -> list:
    """The largest best edge so far over the trees of each group's rows
    that can still lighten it, those whose core distance is below it, or
    -inf where no row can: every edge of a row is at least its core
    distance."""
    tree_best = best[parent]
    return np.maximum.reduceat(np.where(core < tree_best, tree_best, -np.inf), starts[:-1]).tolist()


def _offer(best: np.ndarray, to: np.ndarray, trees: np.ndarray, weights: np.ndarray, ends: np.ndarray) -> None:
    """Offers tree ``trees[k]`` the edge of weight ``weights[k]`` to the row
    ``ends[k]``: each tree keeps its lightest edge in ``best`` and the row
    that edge reaches in ``to``."""
    lighter = weights < best[trees]
    trees, weights, ends = trees[lighter], weights[lighter], ends[lighter]
    np.minimum.at(best, trees, weights)
    hit = weights == best[trees]
    to[trees[hit]] = ends[hit]


def _merge(parent: np.ndarray, trees: np.ndarray, ends: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Joins each tree root ``trees[k]`` with the tree of row ``ends[k]`` by
    that tree's lightest edge to another tree, of ``weights[k]``, and
    returns the weights of the edges that joined two trees. Two trees that
    chose each other share one edge, of one weight. A longer cycle of
    choices has edges of equal weight, one of which joins nothing; only
    ties make one, and then the edges join by ascending weight, which
    counts how many of each weight join trees."""
    ends = parent[ends]
    choice = np.full(parent.size, -1)
    choice[trees] = ends
    one = ~((choice[ends] == trees) & (trees > ends))
    trees, ends, weights = trees[one], ends[one], weights[one]
    before = parent.copy()
    _union(parent, trees, ends)
    roots = np.count_nonzero(before == np.arange(parent.size)) - np.count_nonzero(parent == np.arange(parent.size))
    if roots == trees.size:
        return weights
    parent[:] = before
    joined = []
    for weight in np.unique(weights).tolist():
        tie = weights == weight
        count = np.count_nonzero(parent == np.arange(parent.size))
        _union(parent, trees[tie], ends[tie])
        joined += [weight] * (count - np.count_nonzero(parent == np.arange(parent.size)))
    return np.array(joined)


def _one_column_radii(key: np.ndarray, min_pts: int, metric: str, stats: RunStats | None) -> tuple:
    """The core distance c_p, the join radius max(c_p, r_p) and the reach
    radius min(c_p, r_p, l_p) of each row of the ascending one-column
    ``key``, with r_p = min over the rows q < p of max(K(key_p - key_q),
    c_q), l_p the same over q > p, and inf where no such row is. The
    kernel K of a gap is monotone, so each radius is K of the same
    expression in the gaps with c_q's gap in place of c_q: the three are
    found on the gaps (``_core_gaps``, ``_join_gaps``), and one
    ``_gap_kernel`` call on their finite values, counted in ``stats``,
    turns them into radii, each its pair's kernel value bit for bit."""
    n = key.size
    if min_pts > n:
        return (np.full(n, np.inf),) * 3
    with np.errstate(over="ignore"):
        core = _core_gaps(key, min_pts)
        behind = _join_gaps(key, core)
        # the rows ahead of a row are those behind it on the negated keys in
        # reverse, whose differences are the same floats: negation is exact
        ahead = _join_gaps(-key[::-1], core[::-1])[::-1]
    gaps = np.concatenate((core, np.maximum(core, behind), np.minimum(core, np.minimum(behind, ahead))))
    radii = np.full(gaps.size, np.inf)
    finite = gaps < np.inf
    radii[finite] = _gap_kernel(gaps[finite], metric, stats)
    return radii[:n], radii[n : 2 * n], radii[2 * n :]


def _core_gaps(key: np.ndarray, min_pts: int) -> np.ndarray:
    """The gap from each row of the ascending ``key`` to its ``min_pts``-th
    nearest row, itself included: those rows are a window of ``min_pts``
    sorted rows that holds it, so the gap is the least, over such windows,
    of the larger gap to the window's two ends. As the window's start s
    grows, the gap behind shrinks and the gap ahead grows, so a binary
    search over s finds the first start whose gap behind is at most its
    gap ahead, in O(log ``min_pts``) rounds; the least is the gap ahead
    there or the gap behind at the start before it."""
    n = key.size
    p = np.arange(n)
    lo, hi = np.maximum(p - (min_pts - 1), 0), np.minimum(p, n - min_pts)
    a, b = lo, hi + 1
    while (live := a < b).any():
        s = np.where(live, (a + b) >> 1, lo)
        first = key[s + min_pts - 1] - key >= key - key[s]
        a, b = np.where(live & ~first, s + 1, a), np.where(live & first, s, b)
    behind = np.where(a > lo, key - key[np.maximum(a - 1, 0)], np.inf)
    ahead = np.where(a <= hi, key[np.minimum(a, hi) + min_pts - 1] - key, np.inf)
    return np.minimum(behind, ahead)


def _join_gaps(key: np.ndarray, core: np.ndarray) -> np.ndarray:
    """For each row p of the ascending ``key``, the least over the rows q < p
    of max(key_p - key_q, core_q), inf at row 0.

    Write G(j) = key_p - key_j, which shrinks as j grows, and h(j) the least
    ``core`` over the rows [j, p), which grows with j. The least above is
    the least over j of max(G(j), h(j)), since the row q of h(j) has
    G(q) <= G(j). So with j0 the last row j where h(j) <= G(j), the least
    is G(j0) or h(j0 + 1). Each row finds j0 by an exponential search down
    from p: it takes the runs of 1, 2, 4, ... rows below the rows it has
    taken while h stays above G at a run's start, then halves the first run
    it could not take, with the least ``core`` over each run of 2^L rows
    from level L of a sparse table, built only as high as some row climbs.
    That is O(log N) rounds over all rows at once, about twice the log of
    p - j0 on each row."""
    n = key.size
    levels = [core]  # level L: the least core over the 2^L rows from each row
    j = np.arange(n)  # the rows [j, p) are taken: h > G at each of them
    least = np.full(n, np.inf)  # the least core over the rows taken

    def take(rows: np.ndarray, level: int) -> np.ndarray:
        """Takes the 2^``level`` rows below the rows taken by each of
        ``rows`` where h stays above G at their start; returns where it did."""
        start = j[rows] - (1 << level)
        at = np.maximum(start, 0)
        h = np.minimum(least[rows], levels[level][at])
        ok = (start >= 0) & (h > key[rows] - key[at])
        j[rows[ok]], least[rows[ok]] = start[ok], h[ok]
        return ok

    # each climbing row has taken 2^L - 1 rows at level L, so 2^L <= N
    # there, and level L holds N - 2^L + 1 >= 1 values
    rows, stopped = np.arange(1, n), []
    while rows.size:
        if stopped:
            half = 1 << (len(stopped) - 1)
            levels.append(np.minimum(levels[-1][:-half], levels[-1][half:]))
        ok = take(rows, len(stopped))
        stopped.append(rows[~ok])
        rows = rows[ok]
    # the rows that stopped at each level halve the run they could not take
    rows = stopped.pop()
    for level in range(len(stopped) - 1, -1, -1):
        take(rows, level)
        rows = np.concatenate((rows, stopped[level]))
    return np.minimum(least, np.where(j > 0, key - key[np.maximum(j - 1, 0)], np.inf))


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
