"""Self-test of the benchmark's output checks.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_oracle.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
from tsdbscan.cli import main as tsdbscan_main  # noqa: E402


def test_corrupted_labels_file_is_caught(tmp_path):
    rng = np.random.default_rng(7)
    x = np.vstack([c + rng.normal(size=(40, 3)) for c in (0.0, 12.0, 24.0)])
    data = tmp_path / "data.csv"
    data.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in x) + "\n")
    assert tsdbscan_main(["tune", "--input", str(data), "--min-pts", "5",
                          "--out", str(tmp_path / "tune")]) == 0
    labels = tmp_path / "tune" / "labels.csv"
    report = json.loads((tmp_path / "tune" / "report.json").read_text())
    ok, detail = oracle.check_labeling(x, labels, report, min_pts=5)
    assert ok, detail

    lines = labels.read_text().split()
    lines[0] = "-1" if lines[0] != "-1" else "0"
    labels.write_text("\n".join(lines) + "\n")
    ok, detail = oracle.check_labeling(x, labels, report, min_pts=5)
    assert not ok
    assert "1 labels differ" in detail
