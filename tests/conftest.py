"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's own code paths: the
clustering oracle runs a transitive closure over the full distance
matrix, and the metric oracles work straight from the definitions. Two
references are the exceptions. The AS 217 code reads the library's
one-row hull pass, ``curve._minorant_touches``, and dense Prim
(``_prim_radii``), the curve engine before Borůvka, reads its kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from tsdbscan import core
from tsdbscan.core import _BLOCK_CELLS, RunStats, _block_rows, _distance_block, _validate
from tsdbscan.curve import _minorant_touches
from tsdbscan.data_io import synth_blobs


def brute_force_distances(x: np.ndarray, metric: str = "euclidean") -> np.ndarray:
    """All pairwise distances, each written from its definition.

    Cosine distance 1 - cos is half the squared difference of the rows
    scaled to unit length, at most 2. Each row is first scaled by a power of
    two, which keeps its direction exactly and the squares of a tiny row out
    of the subnormal range, where the norm loses precision.
    """
    if metric == "cosine":
        x = np.ldexp(x, -np.frexp(np.abs(x).max(axis=1, keepdims=True))[1])
        x = x / np.linalg.norm(x, axis=1, keepdims=True)
    diff = x[:, None, :] - x[None, :, :]
    if metric == "euclidean":
        return np.sqrt((diff ** 2).sum(axis=2))
    if metric == "manhattan":
        return np.abs(diff).sum(axis=2)
    if metric == "cosine":
        return np.minimum(0.5 * (diff ** 2).sum(axis=2), 2.0)
    raise ValueError(f"unknown metric {metric!r}")


# the plan of a dbscan run, kept here so a test that patches core._plan
# can still run or record it: the group bound wherever the set has groups
PLAN = core._plan


def key_window(points, lo, hi, epsilon, shared, stats):
    """A stand-in for ``core._plan`` that always runs the key window, the
    reference run on a set with groups: the plan of a run on a matrix
    that ``dbscan`` prepares, which builds no groups."""
    return PLAN(points, lo, hi, epsilon, False, stats)


def given_groups(points, group) -> None:
    """Give the prepared ``points`` the groups ``group``, one number 0 to
    G - 1 for each caller row, in the order a run takes them. Each group
    is centred on its first sorted row, with the radii and centre distances
    the kernel gives, as ``core._farthest_first`` sets them. The group
    bound holds for any groups whose radii and centre distances are right,
    not only for farthest-first ones."""
    groups = core._Groups(points, np.asarray(group)[points.order])
    centres = groups.pos[groups.starts[:-1]]
    kernel = "manhattan" if points.metric == "manhattan" else "euclidean"
    dist = _distance_block(points.x[centres], points.x, kernel, None)
    of = np.repeat(np.arange(centres.size), groups.sizes)
    groups.radius = np.maximum.reduceat(dist[of, groups.pos], groups.starts[:-1])
    groups.between = dist[:, centres]
    points._groups = groups


def brute_force_dbscan(x: np.ndarray, eps: float, min_pts: int,
                       metric: str = "euclidean") -> np.ndarray:
    """Transitive-closure DBSCAN oracle.

    Clusters are connected components of the eps-graph over core points,
    numbered by smallest core index; a border point joins the earliest
    cluster among those with a core point in range.
    """
    n = len(x)
    adj = brute_force_distances(x, metric) <= eps
    core = adj.sum(axis=1) >= min_pts
    labels = np.full(n, -1, dtype=np.int64)
    cluster = 0
    for i in range(n):
        if not core[i] or labels[i] != -1:
            continue
        labels[i] = cluster
        stack = [i]
        while stack:
            u = stack.pop()
            for v in np.flatnonzero(adj[u] & core):
                if labels[v] == -1:
                    labels[v] = cluster
                    stack.append(v)
        cluster += 1
    for i in range(n):
        if core[i]:
            continue
        near_core = np.flatnonzero(adj[i] & core)
        if near_core.size:
            labels[i] = labels[near_core].min()
    return labels


def brute_force_nmi(truth: np.ndarray, pred: np.ndarray) -> float:
    """Definitional NMI with arithmetic-mean normalization."""
    n = len(truth)
    t_vals = sorted(set(truth.tolist()))
    p_vals = sorted(set(pred.tolist()))

    def h(assign, vals):
        total = 0.0
        for v in vals:
            q = sum(1 for a in assign if a == v) / n
            if q > 0:
                total -= q * np.log(q)
        return total

    mi = 0.0
    for tv in t_vals:
        for pv in p_vals:
            joint = sum(1 for a, b in zip(truth, pred) if a == tv and b == pv) / n
            if joint > 0:
                pt = sum(1 for a in truth if a == tv) / n
                pp = sum(1 for b in pred if b == pv) / n
                mi += joint * np.log(joint / (pt * pp))
    denom = 0.5 * (h(truth, t_vals) + h(pred, p_vals))
    if denom == 0:
        return 1.0
    return max(0.0, min(1.0, mi / denom))


def brute_force_ari(truth: np.ndarray, pred: np.ndarray) -> float:
    """Definitional ARI from explicit pair counts."""
    n = len(truth)
    together_both = together_t = together_p = 0
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += 1
            st = truth[i] == truth[j]
            sp = pred[i] == pred[j]
            together_t += st
            together_p += sp
            together_both += st and sp
    expected = together_t * together_p / total
    maximum = 0.5 * (together_t + together_p)
    if maximum == expected:
        return 1.0
    return (together_both - expected) / (maximum - expected)


def brute_force_dip(sample: np.ndarray, delta: float = 1e-7) -> float:
    """LP-based dip oracle for small samples with distinct values.

    For every candidate mode segment, solve for the unimodal
    piecewise-linear CDF (knots at each data point and just before it,
    so a near-jump at the mode is representable) minimizing the sup
    deviation from the ECDF; the dip is the minimum over modes.
    """
    from scipy.optimize import linprog

    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    span = x[-1] - x[0]
    knots = np.sort(np.concatenate([x, x - delta * max(span, 1.0)]))
    m = len(knots)
    # ECDF targets: value (i+1)/n at x_i, left limit i/n just before it
    targets = {}
    for i, xi in enumerate(x):
        targets[np.searchsorted(knots, xi)] = (i + 1) / n
        targets[np.searchsorted(knots, xi - delta * max(span, 1.0))] = i / n

    widths = np.diff(knots)
    best = np.inf
    for mode in range(m - 1):
        # variables: g_0..g_{m-1}, t
        a_ub, b_ub = [], []
        for idx, f in targets.items():
            row = np.zeros(m + 1)
            row[idx], row[m] = 1, -1
            a_ub.append(row)
            b_ub.append(f)
            row = np.zeros(m + 1)
            row[idx], row[m] = -1, -1
            a_ub.append(row)
            b_ub.append(-f)
        for i in range(m - 1):  # monotone
            row = np.zeros(m + 1)
            row[i], row[i + 1] = 1, -1
            a_ub.append(row)
            b_ub.append(0.0)
        for i in range(m - 2):  # slopes rise before the mode, fall after
            row = np.zeros(m + 1)
            s1 = np.zeros(m + 1)
            s1[i], s1[i + 1] = -1 / widths[i], 1 / widths[i]
            s2 = np.zeros(m + 1)
            s2[i + 1], s2[i + 2] = -1 / widths[i + 1], 1 / widths[i + 1]
            if i + 1 <= mode:
                row = s1 - s2
            else:
                row = s2 - s1
            a_ub.append(row)
            b_ub.append(0.0)
        c = np.zeros(m + 1)
        c[m] = 1.0
        bounds = [(0.0, 1.0)] * m + [(0.0, None)]
        res = linprog(c, A_ub=np.array(a_ub), b_ub=np.array(b_ub), bounds=bounds,
                      method="highs")
        if res.success:
            best = min(best, res.fun)
    return best


# The reference AS 217 code (Hartigan & Hartigan, Applied Statistics 1985):
# one sample at a time on Python floats, the dip that the library's chunk
# pass (``curve._chunk_dips``) must match bit for bit.


def _majorant_touches(x: list[float]) -> list[int]:
    """For each j, the next touch point of the least concave majorant of x[j:]."""
    # the concave majorant of x is the mirrored convex minorant of -x reversed;
    # negation and reversal are exact, so the touch points are too
    n = len(x)
    return [n - 1 - m for m in reversed(_minorant_touches([-v for v in reversed(x)]))]


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


def _dip_of_sorted(x: list[float], mn: list[int], mj: list[int]) -> float:
    """Hartigan & Hartigan's dip of a sorted sample (AS 217 algorithm), given
    the touch points of its convex minorant (``mn``) and concave majorant (``mj``)."""
    n = len(x)
    floor = 1.0 / (2 * n)
    if n < 4 or x[0] == x[-1]:
        return floor

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


def _prim_radii(x: np.ndarray, min_pts: int, metric: str, stats: RunStats | None) -> tuple:
    """The core distances, the edges of a minimum spanning tree over the
    mutual-reachability weights and the reach radii of the rows ``x``, by
    dense Prim, with the distances computed into ``stats``: when N^2 fits
    one block, the whole matrix in one call, which the build then reads;
    otherwise each block of rows and each of Prim's rows as needed. When
    ``min_pts`` > N no point is core, and no distance is computed."""
    n = len(x)
    core = np.full(n, np.inf)
    reach = np.full(n, np.inf)
    if min_pts > n:
        return core, np.full(n - 1, np.inf), reach
    matrix = _distance_block(x, x, metric, stats) if n * n <= _BLOCK_CELLS else None

    def rows(s: int, e: int) -> np.ndarray:
        """The distances of the rows [s, e) to every row."""
        if matrix is not None:
            return matrix[s:e]
        return _distance_block(x[s:e], x, metric, stats)

    # a block of rows at a time, a sixteenth of _BLOCK_CELLS, so that a
    # computed block and its temporaries stay small next to the heap a
    # search leaves, and a build over one block raises no peak: each
    # row's core distance from a sorted copy (the matrix is only read),
    # then each row v brings max(d_vj, core_v) to the reach radius of
    # every j, by symmetry the term of v in the reach of j
    step = max(1, _block_rows(n) // 16)
    for s in range(0, n, step):
        block = rows(s, s + step)
        c = core[s : s + step] = np.partition(block, min_pts - 1, axis=1)[:, min_pts - 1]
        np.minimum(reach, np.maximum(block, c[:, None]).min(axis=0), out=reach)

    # Prim, one row a step; scipy's sparse MST would drop the zero-weight
    # edges between duplicate rows. ``key`` is the lightest edge from the
    # tree to each vertex, and ``left`` each vertex's core distance until
    # it joins the tree; both are inf on the tree, which the maximum with
    # ``left`` keeps so. A vertex whose core distance is inf is core at
    # no radius and has only inf edges. When the lightest key left is
    # inf, as where distances overflow, so is every edge from the tree
    # to the vertices left: the next tree starts at the vertex left with
    # the least core distance, and the loop stops once that is inf too
    edges = np.full(n - 1, np.inf)
    key = np.full(n, np.inf)
    left = core.copy()
    m = np.empty(n)
    t = 0
    v = int(left.argmin())
    while left[v] < np.inf:
        left[v] = key[v] = np.inf
        np.maximum(rows(v, v + 1)[0], core[v], out=m)
        np.maximum(m, left, out=m)
        np.minimum(key, m, out=key)
        v = int(key.argmin())
        if key[v] < np.inf:
            edges[t] = key[v]
            t += 1
        else:
            v = int(left.argmin())
    return core, edges, reach


def assert_curve_is_prims(curve, x, min_pts, metric):
    """The sorted core distances, edges and reach radii of ``curve`` are the
    reference dense Prim's on ``x``, bit for bit."""
    for radii, expected in zip(("_core", "_edges", "_reach"), _prim_radii(_validate(x, metric), min_pts, metric, None)):
        assert np.array_equal(getattr(curve, radii), np.sort(expected)), radii


def scalar_dip(sample) -> float:
    """The reference dip of a 1-D sample: sorted, then ``_dip_of_sorted`` on
    the Python floats with the one-row minorant and majorant passes."""
    x = np.sort(np.asarray(sample, dtype=np.float64).ravel()).tolist()
    return float(_dip_of_sorted(x, _minorant_touches(x), _majorant_touches(x)))


def count_strict_local_maxima(curve) -> int:
    """Strict local maxima of k over a sweep's samples, with plateaus compressed."""
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


def distance(p, q, metric: str = "euclidean") -> float:
    """The library kernel's distance between two points, bit for bit: unlike
    the oracles above, this reads the library, for tests that need the very
    value ``dbscan`` compares with eps."""
    x = _validate(np.stack([np.ravel(p), np.ravel(q)]), metric)
    return float(_distance_block(x[:1], x[1:], metric, None)[0, 0])


@pytest.fixture(scope="session")
def blob_suite():
    """Twenty seeded blob datasets (k=20, N=2000, D=16, separation 20)."""
    out = []
    for seed in range(20):
        points, labels = synth_blobs(k=20, per_cluster=100, dims=16,
                                     separation=20.0, seed=seed)
        out.append((points, labels))
    return out
