"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's own code paths: the
clustering oracle runs a transitive closure over the full distance
matrix, and the metric oracles work straight from the definitions.
"""

from __future__ import annotations

import numpy as np
import pytest

from tsdbscan import core
from tsdbscan.core import _distance_block, _validate
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
