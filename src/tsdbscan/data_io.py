"""CSV ingestion, label files, and synthetic blob datasets.

On disk, noise is the label -1; rows of the data file are points. Label
files hold one integer per line. An optional header row is auto-detected
by a non-numeric first line.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

from .core import CurveSample

_DELIMS = {"csv": ",", "tsv": "\t"}


def load_matrix(path, fmt: str = "csv") -> np.ndarray:
    """Parse a numeric matrix; errors carry the offending line number."""
    if fmt not in _DELIMS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {tuple(_DELIMS)}")
    delim = _DELIMS[fmt]
    path = Path(path)
    numbered = [(i, ln) for i, ln in enumerate(path.read_text().splitlines(), start=1)
                if ln.strip()]
    if not numbered:
        raise ValueError(f"{path}: empty file")

    def try_parse(line: str) -> list[float] | None:
        try:
            return [float(c) for c in line.split(delim)]
        except ValueError:
            return None

    first = try_parse(numbered[0][1])
    if first is None:  # header row
        numbered = numbered[1:]
        if not numbered:
            raise ValueError(f"{path}: no data rows after header")

    rows = []
    width = None
    for lineno, line in numbered:
        row = try_parse(line)
        if row is None:
            raise ValueError(f"{path}: non-numeric cell at line {lineno}")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(f"{path}: ragged row at line {lineno} "
                             f"({len(row)} cells, expected {width})")
        rows.append(row)
    x = np.array(rows, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{path}: matrix contains NaN or Inf")
    return x


def load_labels(path) -> np.ndarray:
    """One integer per line; -1 is noise, as it is in memory (``NOISE``)."""
    path = Path(path)
    numbered = [(i, ln) for i, ln in enumerate(path.read_text().splitlines(), start=1)
                if ln.strip()]
    if not numbered:
        raise ValueError(f"{path}: empty label file")
    labels = np.empty(len(numbered), dtype=np.int64)
    for i, (lineno, line) in enumerate(numbered):
        try:
            labels[i] = int(line)
        except ValueError:
            raise ValueError(f"{path}: non-integer label at line {lineno}") from None
    return labels


def write_labels(path, labels: np.ndarray) -> None:
    """One label per line, -1 for noise, written atomically."""
    atomic_write_text(path, "\n".join(str(v) for v in np.asarray(labels, dtype=np.int64)) + "\n")


def write_curve(path, curve: list[CurveSample]) -> None:
    lines = ["epsilon,k,noise_fraction"]
    lines += [f"{c.epsilon!r},{c.k},{c.noise!r}" for c in curve]
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_curve(path) -> list[CurveSample]:
    """Read a curve CSV written by :func:`write_curve`; a radius that is not
    positive or not above the row before, a k that is not a non-negative
    integer, or a noise fraction outside [0, 1], is an error naming the
    data row (1-based, header excluded), as :func:`curve.sweep_curve`
    rejects such a grid."""
    x = load_matrix(path, "csv")
    if x.shape[1] != 3:
        raise ValueError(f"{path}: curve file must have 3 columns (epsilon,k,noise_fraction)")
    curve = []
    for row, (e, k, nf) in enumerate(x.tolist(), start=1):
        if not e > 0:
            raise ValueError(f"{path}: row {row}: epsilon must be positive, got {e!r}")
        if curve and not e > curve[-1].epsilon:
            raise ValueError(f"{path}: row {row}: epsilon must exceed the previous row's "
                             f"{curve[-1].epsilon!r}, got {e!r}")
        if not (k >= 0 and k.is_integer()):
            raise ValueError(f"{path}: row {row}: k must be a non-negative integer, got {k!r}")
        if not 0 <= nf <= 1:
            raise ValueError(f"{path}: row {row}: noise fraction must lie in [0, 1], got {nf!r}")
        curve.append(CurveSample(e, int(k), nf))
    return curve


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file and rename; never leaves partial output."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def synth_blobs(k: int, per_cluster: int, dims: int, separation: float,
                seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Isotropic unit-variance Gaussian blobs with well-separated centers.

    Centers are rejection-sampled in a cube until mutually at least
    ``separation`` apart. Returns (points, ground-truth labels).
    """
    if k < 1 or per_cluster < 1 or dims < 1:
        raise ValueError("k, per_cluster, and dims must be positive")
    if not 0 < separation < math.inf:
        raise ValueError("separation must be positive and finite")
    rng = np.random.default_rng(seed)
    side = separation * max(2.0, 1.5 * math.ceil(k ** (1.0 / dims)))
    centers = []
    for _ in range(k):
        for _attempt in range(10_000):
            c = rng.random(dims) * side
            if all(np.linalg.norm(c - other) >= separation for other in centers):
                centers.append(c)
                break
        else:
            raise RuntimeError("could not place blob centers; lower k or separation")
    points = np.vstack([c + rng.normal(size=(per_cluster, dims)) for c in centers])
    labels = np.repeat(np.arange(k, dtype=np.int64), per_cluster)
    return points, labels
