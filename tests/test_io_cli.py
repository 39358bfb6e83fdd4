import json
from pathlib import Path

import numpy as np
import pytest

from tsdbscan import NOISE, CurveSample
from tsdbscan.cli import main
from tsdbscan.data_io import (
    load_curve,
    load_labels,
    load_matrix,
    synth_blobs,
    write_curve,
    write_labels,
)


class TestLoadMatrix:
    def test_plain_csv(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,0\n1,0\n")
        assert load_matrix(p).tolist() == [[0, 0], [1, 0]]

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n0,0\n")
        assert load_matrix(p).tolist() == [[0, 0]]

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,0\n1\n")
        with pytest.raises(ValueError, match="line 2"):
            load_matrix(p)

    def test_non_numeric_cell_reports_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,0\n1,oops\n")
        with pytest.raises(ValueError, match="line 2"):
            load_matrix(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_matrix(p)

    def test_tsv(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("0\t1\n2\t3\n")
        assert load_matrix(p, "tsv").tolist() == [[0, 1], [2, 3]]


class TestLabels:
    def test_noise_mapping(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("0\n0\n-1\n")
        assert load_labels(p).tolist() == [0, 0, NOISE]

    def test_empty_errors(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("")
        with pytest.raises(ValueError):
            load_labels(p)

    def test_plain_ints(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("2\n2\n2\n")
        assert load_labels(p).tolist() == [2, 2, 2]

    def test_non_integer_errors(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("0\nx\n")
        with pytest.raises(ValueError, match="line 2"):
            load_labels(p)

    def test_round_trip(self, tmp_path):
        p = tmp_path / "l.csv"
        labels = np.array([0, 1, NOISE, 2])
        write_labels(p, labels)
        assert np.array_equal(load_labels(p), labels)


class TestSynthBlobs:
    def test_single_blob(self):
        _, labels = synth_blobs(1, 10, 2, 5.0, seed=0)
        assert set(labels.tolist()) == {0}

    def test_deterministic(self):
        a, la = synth_blobs(3, 20, 4, 10.0, seed=5)
        b, lb = synth_blobs(3, 20, 4, 10.0, seed=5)
        assert np.array_equal(a, b)
        assert np.array_equal(la, lb)

    def test_center_separation(self):
        x, labels = synth_blobs(5, 30, 3, 50.0, seed=1)
        centers = np.array([x[labels == c].mean(axis=0) for c in range(5)])
        for i in range(5):
            for j in range(i + 1, 5):
                assert np.linalg.norm(centers[i] - centers[j]) > 40


def run_cli(args):
    return main([str(a) for a in args])


@pytest.fixture
def blob_files(tmp_path):
    out = tmp_path / "synth"
    assert run_cli(["synth", "--k", 3, "--per-cluster", 30, "--dims", 4,
                    "--separation", 30, "--seed", 2, "--out", out]) == 0
    return out / "data.csv", out / "labels.csv"


class TestCli:
    def test_dbscan_round_trip(self, tmp_path, blob_files):
        data, _ = blob_files
        out = tmp_path / "run"
        assert run_cli(["dbscan", "--input", data, "--epsilon", 5.0,
                        "--min-pts", 3, "--out", out]) == 0
        labels = load_labels(out / "labels.csv")
        report = json.loads((out / "report.json").read_text())
        assert report["version"] == "1"
        assert report["command"] == "dbscan"
        assert report["results"]["k"] == len(set(labels[labels != NOISE].tolist()))
        assert report["dbscan_invocations"] == 1

    def test_tune_reports_budget(self, tmp_path, blob_files):
        data, _ = blob_files
        out = tmp_path / "tune"
        assert run_cli(["tune", "--input", data, "--min-pts", 3, "--itr", 4,
                        "--seed", 9, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["dbscan_invocations"] == 6 * 4
        assert report["results"]["epsilon_star"] > 0
        assert report["config"]["seed"] == 9

    def test_replay_is_byte_identical(self, tmp_path, blob_files):
        data, _ = blob_files
        first = tmp_path / "a"
        assert run_cli(["tune", "--input", data, "--min-pts", 3, "--seed", 4,
                        "--out", first]) == 0
        report = json.loads((first / "report.json").read_text())
        cfg = report["config"]
        second = tmp_path / "b"
        assert run_cli(["tune", "--input", cfg["input"], "--min-pts", cfg["min-pts"],
                        "--itr", cfg["itr"], "--alpha", cfg["alpha"], "--m", cfg["m"],
                        "--seed", cfg["seed"], "--metric", cfg["metric"],
                        "--out", second]) == 0
        assert (first / "labels.csv").read_bytes() == (second / "labels.csv").read_bytes()

    def test_sweep_then_dip(self, tmp_path, blob_files):
        data, _ = blob_files
        sweep_out = tmp_path / "sweep"
        assert run_cli(["sweep", "--input", data, "--min-pts", 3,
                        "--grid-size", 40, "--out", sweep_out]) == 0
        curve = load_curve(sweep_out / "curve.csv")
        assert len(curve) == 40
        dip_out = tmp_path / "dip"
        assert run_cli(["dip", "--input", sweep_out / "curve.csv", "--n-boot", 50,
                        "--seed", 0, "--out", dip_out]) == 0
        report = json.loads((dip_out / "report.json").read_text())
        assert 0 <= report["results"]["p_value"] <= 1
        assert report["results"]["dip"] > 0

    def test_sweep_reports_one_build_and_no_dbscan_run(self, tmp_path, blob_files):
        data, _ = blob_files
        out = tmp_path / "sweep"
        assert run_cli(["sweep", "--input", data, "--min-pts", 3,
                        "--grid-size", 20, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["dbscan_invocations"] == 0
        assert report["point_evaluations"] == 0
        assert report["curve_builds"] == 1

    @pytest.mark.parametrize("row,message", [
        ("0.5,2.7,0.1", "k must be a non-negative integer, got 2.7"),
        ("0.5,-0.5,0.1", "k must be a non-negative integer, got -0.5"),
        ("0.5,-1,0.1", "k must be a non-negative integer, got -1.0"),
        ("0.5,2,1.5", r"noise fraction must lie in \[0, 1\], got 1.5"),
        ("0.5,2,-0.25", r"noise fraction must lie in \[0, 1\], got -0.25"),
    ])
    def test_bad_curve_rows_name_file_and_row(self, tmp_path, capsys, row, message):
        curve = tmp_path / "curve.csv"
        curve.write_text(f"epsilon,k,noise_fraction\n0.25,1,0.5\n{row}\n")
        with pytest.raises(ValueError, match=f"curve.csv: row 2: {message}"):
            load_curve(curve)
        out = tmp_path / "dip"
        assert run_cli(["dip", "--input", curve, "--n-boot", 5, "--out", out]) == 1
        assert "row 2" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_written_curve_loads_unchanged(self, tmp_path):
        curve = [CurveSample(0.1, 0, 1.0), CurveSample(0.30000000000000004, 7, 1 / 3),
                 CurveSample(2.5e-300, 12, 0.0)]
        path = tmp_path / "curve.csv"
        write_curve(path, curve)
        assert load_curve(path) == curve

    def test_eval_command(self, tmp_path, blob_files):
        data, truth = blob_files
        run_dir = tmp_path / "cluster"
        assert run_cli(["dbscan", "--input", data, "--epsilon", 5.0,
                        "--min-pts", 3, "--out", run_dir]) == 0
        eval_dir = tmp_path / "eval"
        assert run_cli(["eval", "--input", run_dir / "labels.csv",
                        "--labels", truth, "--out", eval_dir]) == 0
        report = json.loads((eval_dir / "report.json").read_text())
        for key in ("nmi", "ari", "noise_fraction", "k", "excluded_count"):
            assert key in report["results"]

    def test_oracle_command(self, tmp_path):
        out = tmp_path / "oracle"
        assert run_cli(["oracle", "--n", 300, "--trials", 5, "--conc-n", 1000,
                        "--conc-trials", 2, "--dims", 1, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert "closed_form_mode_epsilon" in report["results"]
        assert report["results"]["concentration"][0]["dims"] == 1

    def test_cosine_zero_vector_fails_with_message(self, tmp_path, capsys):
        data = tmp_path / "zero.csv"
        data.write_text("0,0\n1,0\n1,0.01\n0,0\n")
        out = tmp_path / "run"
        code = run_cli(["dbscan", "--input", data, "--epsilon", 0.5, "--min-pts", 2,
                        "--metric", "cosine", "--out", out])
        assert code == 1
        assert "zero vectors" in capsys.readouterr().err
        assert not (out / "labels.csv").exists()

    def test_missing_input_fails_without_outputs(self, tmp_path):
        out = tmp_path / "missing"
        code = run_cli(["dbscan", "--input", tmp_path / "nope.csv", "--epsilon", 1,
                        "--min-pts", 2, "--out", out])
        assert code != 0
        assert not (out / "labels.csv").exists()
        assert not (out / "report.json").exists()
