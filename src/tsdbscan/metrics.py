"""Noise-aware external clustering evaluation: NMI and ARI.

Noise-labeled points are excluded before scoring so the metrics measure
clustering quality rather than noise prediction. NMI normalizes mutual
information by the arithmetic mean of the two label entropies.
"""

from __future__ import annotations

import numpy as np

from .core import NOISE


def _as_labels(a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.int64).ravel()
    if arr.size == 0:
        raise ValueError("empty label array")
    return arr


def exclude_noise(truth, predicted) -> tuple[np.ndarray, np.ndarray]:
    """Drop every index where either side is noise."""
    t = _as_labels(truth)
    p = _as_labels(predicted)
    if len(t) != len(p):
        raise ValueError(f"label arrays differ in length: {len(t)} vs {len(p)}")
    keep = (p != NOISE) & (t != NOISE)
    if not np.any(keep):
        raise ValueError("no points left after excluding noise")
    return t[keep], p[keep]


def _contingency(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    _, ti = np.unique(t, return_inverse=True)
    _, pi = np.unique(p, return_inverse=True)
    table = np.zeros((ti.max() + 1, pi.max() + 1), dtype=np.int64)
    np.add.at(table, (ti, pi), 1)
    return table


def _entropy(counts: np.ndarray) -> float:
    q = counts[counts > 0] / counts.sum()
    return float(-(q * np.log(q)).sum())


def nmi(truth, predicted) -> float:
    """Normalized mutual information after noise exclusion, in [0, 1]."""
    t, p = exclude_noise(truth, predicted)
    table = _contingency(t, p)
    n = table.sum()
    rows = table.sum(axis=1)
    cols = table.sum(axis=0)
    h_t = _entropy(rows)
    h_p = _entropy(cols)
    denom = 0.5 * (h_t + h_p)
    if denom == 0:
        # both partitions are a single class, hence identical
        return 1.0
    mi = 0.0
    for i, j in zip(*np.nonzero(table)):
        nij = table[i, j]
        mi += (nij / n) * np.log(n * nij / (rows[i] * cols[j]))
    return float(max(0.0, min(1.0, mi / denom)))


def _pairs(c: np.ndarray) -> np.ndarray:
    return c * (c - 1) // 2


def ari(truth, predicted) -> float:
    """Adjusted Rand index after noise exclusion; 1 is perfect, 0 is chance."""
    t, p = exclude_noise(truth, predicted)
    if len(t) < 2:
        raise ValueError("ARI needs at least 2 non-noise points")
    table = _contingency(t, p)
    n = table.sum()
    index = _pairs(table).sum()
    sum_a = _pairs(table.sum(axis=1)).sum()
    sum_b = _pairs(table.sum(axis=0)).sum()
    total = _pairs(np.array([n]))[0]
    expected = sum_a * sum_b / total
    maximum = 0.5 * (sum_a + sum_b)
    if maximum == expected:
        return 1.0
    return float((index - expected) / (maximum - expected))

