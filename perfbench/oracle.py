"""Output checks against an independent DBSCAN oracle.

Nothing here imports ``tsdbscan``: data and labels are read straight from
the files the CLI wrote, and clusters are the connected components of the
eps-graph over core points (closed ball, the point itself counted). A
border point takes the smallest cluster id among its core neighbours,
and clusters are numbered in the order of their first core point, the
rule the test suite's brute-force oracle uses.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

NOISE = -1
_BLOCK_CELLS = 4_000_000  # floats per distance block


def load_points(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def load_labels(path: Path) -> np.ndarray:
    return np.array(Path(path).read_text().split(), dtype=np.int64)


def dbscan_labels(x: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Euclidean DBSCAN labels, noise as -1."""
    n, d = x.shape
    step = max(1, _BLOCK_CELLS // (n * d))
    rows, cols = [], []
    for s in range(0, n, step):
        dist = np.sqrt(((x[s : s + step, None, :] - x[None, :, :]) ** 2).sum(axis=2))
        r, c = np.nonzero(dist <= eps)
        rows.append(r + s)
        cols.append(c)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    core = np.bincount(rows, minlength=n) >= min_pts

    labels = np.full(n, NOISE, dtype=np.int64)
    core_idx = np.flatnonzero(core)
    if core_idx.size == 0:
        return labels
    pos = np.full(n, -1, dtype=np.int64)
    pos[core_idx] = np.arange(core_idx.size)
    both = core[rows] & core[cols]
    graph = coo_matrix((np.ones(int(both.sum()), dtype=np.int8), (pos[rows[both]], pos[cols[both]])),
                       shape=(core_idx.size, core_idx.size))
    _, comp = connected_components(graph, directed=False)
    # renumber components by their first core point
    _, first = np.unique(comp, return_index=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    labels[core_idx] = rank[comp]

    border = ~core[rows] & core[cols]
    best = np.full(n, np.iinfo(np.int64).max)
    np.minimum.at(best, rows[border], labels[cols[border]])
    reached = ~core & (best != np.iinfo(np.int64).max)
    labels[reached] = best[reached]
    return labels


def k_and_noise(labels: np.ndarray) -> tuple[int, float]:
    return int(np.unique(labels[labels != NOISE]).size), float(np.count_nonzero(labels == NOISE) / labels.size)


def check_labeling(x: np.ndarray, labels_path: Path, report: dict, min_pts: int) -> tuple[bool, str]:
    """Labels, k and noise fraction of a tune/tse run at its reported radius."""
    res = report["results"]
    eps = res["epsilon_star"]
    want = dbscan_labels(x, eps, min_pts)
    got = load_labels(labels_path)
    if got.shape != want.shape:
        return False, f"{got.size} labels for {want.size} points"
    wrong = int(np.count_nonzero(got != want))
    k, noise = k_and_noise(want)
    ok = wrong == 0 and res["k"] == k and res["noise_fraction"] == noise
    return ok, (f"eps={eps!r}: {wrong} labels differ; k {res['k']} vs {k}, "
                f"noise {res['noise_fraction']} vs {noise}")


def check_sweep(x: np.ndarray, curve_path: Path, min_pts: int, seed: int, samples: int = 5):
    """k and noise at ``samples`` grid points drawn with ``seed``."""
    curve = np.loadtxt(curve_path, delimiter=",", skiprows=1, ndmin=2)
    picks = np.sort(np.random.default_rng(seed).choice(len(curve), size=samples, replace=False))
    out = []
    for i in picks:
        eps, k, noise = (float(v) for v in curve[i])
        want_k, want_noise = k_and_noise(dbscan_labels(x, eps, min_pts))
        out.append((f"sweep point {i}", int(k) == want_k and noise == want_noise,
                    f"eps={eps!r}: k {int(k)} vs {want_k}, noise {noise} vs {want_noise}"))
    return out


def expected_k_uniform_1d(n: int, eps: float) -> float:
    """Closed-form E[k] for n iid U[0,1] points at min_pts=2."""
    return (n - 1) * max(1 - eps, 0.0) ** n - (n - 2) * max(1 - 2 * eps, 0.0) ** n


def check_oracle(report: dict, dims: tuple[int, ...]) -> list[tuple[str, bool, str]]:
    res = report["results"]
    n = res["n"]
    closed = expected_k_uniform_1d(n, math.log(2) / n)
    mean, se = res["monte_carlo_mean_k_at_ln2_over_n"], res["monte_carlo_std_error"]
    tol = max(0.05 * closed, 3 * se)
    out = [("monte carlo vs closed form", abs(mean - closed) <= tol,
            f"mean {mean} vs closed form {closed:.4f}, tolerance {tol:.4f}")]
    got_dims = tuple(c["dims"] for c in res["concentration"])
    out.append(("concentration dims", got_dims == dims, f"{got_dims} vs {dims}"))
    for c in res["concentration"]:
        out.append((f"concentration dims={c['dims']}", c["passed"] is True,
                    f"single-cluster {c['fraction_single_cluster']}, "
                    f"no-cluster {c['fraction_no_cluster']}"))
    return out
