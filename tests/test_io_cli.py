import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import pdist

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

    def test_cells_are_what_float_reads_bit_for_bit(self, tmp_path):
        # float's grammar: surrounding whitespace, underscores between
        # digits, non-ASCII decimal digits, subnormals, a signed zero and
        # decimals that round, next to the shortest reprs of random floats
        cells = [" 1_0", "١", "\t2.5 ", "1e5", "-0.0", "4.9e-324", "2.4e-324", "0.1",
                 "+.5", "1.", " 3", "７", "9007199254740993", "1e-400",
                 "0.30000000000000004441", *map(repr, (np.random.default_rng(0).normal(size=30) * 1e3).tolist())]
        p = tmp_path / "d.csv"
        p.write_text("\n".join(",".join(cells[i : i + 3]) for i in range(0, len(cells), 3)) + "\n")
        got = load_matrix(p)
        assert got.shape == (len(cells) // 3, 3)
        assert np.array_equal(got.ravel().view(np.int64), np.array([float(c) for c in cells]).view(np.int64))

    @pytest.mark.parametrize("text, rows", [
        ("x,y\n0,0\n", [[0, 0]]),
        ("1,x\n0,0\n", [[0, 0]]),  # one cell that float() rejects makes a header
        ("\n\n 1 , 2 \n3,4\n", [[1, 2], [3, 4]]),  # a numeric first line is data
        ("x\n\n5\n\n6\n", [[5], [6]]),
        # a UTF-8 byte order mark is no part of the first line
        ("\ufeff1.0,2.0\n3,4\n", [[1, 2], [3, 4]]),
        ("\ufeffx,y\n0,0\n", [[0, 0]]),
    ])
    def test_header_detection(self, tmp_path, text, rows):
        p = tmp_path / "d.csv"
        p.write_text(text, encoding="utf-8")
        assert load_matrix(p).tolist() == rows

    @pytest.mark.parametrize("text, message", [
        ("0,0\n1\n", "ragged row at line 2 (1 cells, expected 2)"),
        ("0,0\n1,oops\n", "non-numeric cell at line 2"),
        # blank lines count, a header is line 1, and the first bad line
        # wins: a row whose cell does not parse is non-numeric, whatever
        # its width
        ("x,y\n\n0,0\n\n1,2,3\n0x1,0\n", "ragged row at line 5 (3 cells, expected 2)"),
        ("x,y\n\n0,0\n\n1,1_\n1,2,3\n", "non-numeric cell at line 5"),
        ("0,0\n1,2,oops\n", "non-numeric cell at line 2"),
        ("0,0\n1,,2\n", "non-numeric cell at line 2"),
        ("0,0\n1,2,\n", "non-numeric cell at line 2"),
        ("0,0\n1,inf\n", "matrix contains NaN or Inf"),
    ])
    def test_errors_name_the_first_bad_line(self, tmp_path, text, message):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(ValueError) as error:
            load_matrix(p)
        assert str(error.value) == f"{p}: {message}"


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
        # the line number counts blank lines, as load_matrix's does
        p = tmp_path / "l.csv"
        for text, line in (("0\nx\n", 2), ("0\n\n\nx\n", 4)):
            p.write_text(text)
            with pytest.raises(ValueError, match=f"non-integer label at line {line}$"):
                load_labels(p)

    def test_byte_order_mark_is_no_part_of_the_first_label(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("\ufeff3\n-1\n", encoding="utf-8")
        assert load_labels(p).tolist() == [3, NOISE]

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

    def test_ambient_rotates_the_same_blobs_into_more_columns(self):
        # the rotation is drawn after the blobs, so their rows are those of
        # the default, moved by an isometry into the ambient columns
        x, labels = synth_blobs(4, 20, 3, 20.0, seed=3)
        for ambient in (3, 16):
            y, again = synth_blobs(4, 20, 3, 20.0, seed=3, ambient=ambient)
            assert y.shape == (80, ambient) and np.array_equal(again, labels)
            assert np.allclose(pdist(y), pdist(x), rtol=1e-12, atol=0)
        assert np.array_equal(y, synth_blobs(4, 20, 3, 20.0, seed=3, ambient=16)[0])
        with pytest.raises(ValueError, match="ambient must be at least dims=3, got 2"):
            synth_blobs(4, 20, 3, 20.0, seed=3, ambient=2)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("separation", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
    def test_rejects_separation_that_is_not_positive_and_finite(self, k, separation):
        # an infinite separation gave one blob of inf rows, or 10,000 failed placements
        with pytest.raises(ValueError, match="separation must be positive and finite"):
            synth_blobs(k, 5, 2, separation, seed=0)


SYNTH_SIZES = "k, per_cluster, and dims must be positive"


@pytest.mark.parametrize("text,call,message", [
    pytest.param("0,0\n", lambda p: load_matrix(p, "json"), "unknown format 'json'",
                 id="load_matrix-unknown-format"),
    pytest.param("x,y\n\n", load_matrix, "no data rows after header", id="load_matrix-header-only"),
    pytest.param("0,0\n1,nan\n", load_matrix, "NaN or Inf", id="load_matrix-nan-cell"),
    pytest.param("epsilon,k\n0.5,2\n", load_curve, "curve file must have 3 columns",
                 id="load_curve-two-columns"),
    pytest.param("epsilon,k,noise_fraction,x\n0.5,2,0.0,1\n", load_curve,
                 "curve file must have 3 columns", id="load_curve-four-columns"),
    pytest.param("epsilon,k,noise_fraction\n3.0,1,0.0\n-1.0,2,0.0\n2.0,1,0.0\n", load_curve,
                 "row 2: epsilon must be positive, got -1.0", id="load_curve-negative-radius"),
    pytest.param("epsilon,k,noise_fraction\n3.0,1,0.0\n2.0,2,0.0\n", load_curve,
                 "row 2: epsilon must exceed the previous row's 3.0, got 2.0",
                 id="load_curve-decreasing-radius"),
    pytest.param("", lambda p: synth_blobs(0, 5, 2, 10.0, seed=0), SYNTH_SIZES, id="synth_blobs-k"),
    pytest.param("", lambda p: synth_blobs(2, 0, 2, 10.0, seed=0), SYNTH_SIZES,
                 id="synth_blobs-per-cluster"),
    pytest.param("", lambda p: synth_blobs(2, 5, 0, 10.0, seed=0), SYNTH_SIZES, id="synth_blobs-dims"),
    pytest.param("", lambda p: synth_blobs(2.5, 5, 2, 10.0, seed=0), "k must be an integer, got 2.5",
                 id="synth_blobs-k-not-integer"),
    pytest.param("", lambda p: synth_blobs(2, 5.0, 2, 10.0, seed=0), "per_cluster must be an integer, got 5.0",
                 id="synth_blobs-per-cluster-not-integer"),
    pytest.param("", lambda p: synth_blobs(2, 5, 1.5, 10.0, seed=0), "dims must be an integer, got 1.5",
                 id="synth_blobs-dims-not-integer"),
])
def test_outside_input_rejected(tmp_path, text, call, message):
    p = tmp_path / "in.csv"
    p.write_text(text)
    with pytest.raises(ValueError, match=message):
        call(p)


def run_cli(args):
    return main([str(a) for a in args])


@pytest.fixture
def blob_files(tmp_path):
    out = tmp_path / "synth"
    assert run_cli(["synth", "--k", 3, "--per-cluster", 30, "--dims", 4,
                    "--separation", 30, "--seed", 2, "--out", out]) == 0
    return out / "data.csv", out / "labels.csv"


# sha256 of data.csv from `tsdbscan synth` with the benchmark's blob
# arguments; an option added to synth must leave the default bytes alone
SYNTH_BYTES = {
    ("--k", 20, "--per-cluster", 100, "--dims", 16, "--separation", 20, "--seed", 0):
        "b65fa1522031afe126f371523663e033646c5b027189fa6c1645c17a6398c27d",
    ("--k", 16, "--per-cluster", 500, "--dims", 2, "--separation", 20, "--seed", 3):
        "c06cf0eefb15818c583192a9b075e0c812e8f98ae759a6a34c0f3a5f09b7f7c2",
}


@pytest.mark.parametrize("args", list(SYNTH_BYTES))
def test_synth_default_bytes_are_pinned(tmp_path, args):
    assert run_cli(["synth", *args, "--out", tmp_path]) == 0
    assert hashlib.sha256((tmp_path / "data.csv").read_bytes()).hexdigest() == SYNTH_BYTES[args]
    assert "ambient" not in json.loads((tmp_path / "report.json").read_text())["config"]


class TestCli:
    def test_synth_ambient_replays_from_its_report(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        args = ["--k", 2, "--per-cluster", 5, "--dims", 2, "--ambient", 6, "--seed", 7]
        assert run_cli(["synth", *args, "--out", first]) == 0
        report = json.loads((first / "report.json").read_text())
        assert report["config"]["ambient"] == 6 and report["results"]["n_dims"] == 6
        assert load_matrix(first / "data.csv").shape == (10, 6)
        replay = [a for key, value in report["config"].items() if key != "out" for a in (f"--{key}", value)]
        assert run_cli(["synth", *replay, "--out", second]) == 0
        assert (first / "data.csv").read_bytes() == (second / "data.csv").read_bytes()

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
                        "--itr", cfg["itr"], "--alpha", cfg["alpha"],
                        "--seed", cfg["seed"], "--metric", cfg["metric"],
                        "--out", second]) == 0
        assert (first / "labels.csv").read_bytes() == (second / "labels.csv").read_bytes()

    @pytest.mark.parametrize("command", ["dbscan", "tune", "tse", "sweep", "dip", "oracle",
                                         "eval", "synth"])
    def test_every_command_replays_from_its_report(self, tmp_path, blob_files, command):
        data, truth = blob_files
        curve, predicted = tmp_path / "curve.csv", tmp_path / "predicted.csv"
        write_curve(curve, [CurveSample(0.5 * i, k, 0.0) for i, k in enumerate([0, 2, 3, 2, 1], 1)])
        write_labels(predicted, np.r_[load_labels(truth)[:-10], np.full(10, NOISE)])
        args = {
            "dbscan": ["--input", data, "--epsilon", 5.0, "--min-pts", 3],
            "tune": ["--input", data, "--min-pts", 3, "--itr", 3, "--seed", 4],
            "tse": ["--input", data, "--min-pts", 3, "--itr", 2, "--m", 2, "--seed", 4],
            "sweep": ["--input", data, "--min-pts", 3, "--grid-size", 20],
            "dip": ["--input", curve, "--n-boot", 20, "--seed", 5],
            "oracle": ["--n", 300, "--trials", 5, "--conc-n", 1000, "--conc-trials", 2,
                       "--dims", 1, 2, "--seed", 6],
            "eval": ["--input", predicted, "--labels", truth],
            "synth": ["--k", 2, "--per-cluster", 5, "--dims", 2, "--seed", 7],
        }[command]
        first, second = tmp_path / "a", tmp_path / "b"
        assert run_cli([command, *args, "--out", first]) == 0
        report = json.loads((first / "report.json").read_text())
        replay = []
        for key, value in report["config"].items():
            if key != "out":
                replay += [f"--{key}", *(value if isinstance(value, list) else [value])]
        assert run_cli([command, *replay, "--out", second]) == 0
        again = json.loads((second / "report.json").read_text())
        assert {**again["config"], "out": str(first)} == report["config"]
        for key in ("results", "dbscan_invocations", "point_evaluations", "curve_builds"):
            assert again[key] == report[key]
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            if name != "report.json":
                assert (first / name).read_bytes() == (second / name).read_bytes()

    @pytest.mark.parametrize("command,args", [
        # options the command never read, so its report echoed them for nothing
        ("dbscan", ["--input", "d.csv", "--epsilon", 1, "--min-pts", 2, "--seed", 1]),
        ("sweep", ["--input", "d.csv", "--min-pts", 2, "--seed", 1]),
        ("eval", ["--input", "p.csv", "--labels", "t.csv", "--seed", 1]),
        ("dip", ["--input", "c.csv", "--format", "csv"]),
        # prefixes of --alpha and --seed
        ("tune", ["--input", "d.csv", "--min-pts", 2, "--alp", 0.5]),
        ("tune", ["--input", "d.csv", "--min-pts", 2, "--se", 3]),
    ])
    def test_options_a_command_does_not_declare_exit_2(self, tmp_path, command, args):
        with pytest.raises(SystemExit) as exc:
            run_cli([command, *args, "--out", tmp_path / "out"])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_only_tse_takes_m(self, tmp_path, blob_files):
        # ts_clustering reads no m, so tune has no --m to ignore
        data, _ = blob_files
        with pytest.raises(SystemExit):
            run_cli(["tune", "--input", data, "--min-pts", 3, "--m", 5, "--out", tmp_path / "tune"])
        assert run_cli(["tse", "--input", data, "--min-pts", 3, "--itr", 2, "--m", 2,
                        "--out", tmp_path / "tse"]) == 0
        report = json.loads((tmp_path / "tse" / "report.json").read_text())
        assert report["config"]["m"] == 2
        # the two bounds, then m final searches, of 2 * itr probes each
        assert report["dbscan_invocations"] == (2 + 2) * 2 * 2

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

    def test_sweep_and_dip_report_the_first_maximum_of_k(self, tmp_path, blob_files):
        data, _ = blob_files
        sweep_out = tmp_path / "sweep"
        assert run_cli(["sweep", "--input", data, "--min-pts", 3,
                        "--grid-size", 40, "--out", sweep_out]) == 0
        dip_out = tmp_path / "dip"
        assert run_cli(["dip", "--input", sweep_out / "curve.csv", "--n-boot", 5,
                        "--seed", 0, "--out", dip_out]) == 0
        # both report the first grid radius where k is largest; the curve
        # ties there, so a later maximum would differ
        curve = load_curve(sweep_out / "curve.csv")
        ks = [c.k for c in curve]
        first = curve[ks.index(max(ks))]
        assert ks.count(max(ks)) > 1
        for out in (sweep_out, dip_out):
            results = json.loads((out / "report.json").read_text())["results"]
            assert (results["mode_epsilon"], results["mode_k"]) == (first.epsilon, first.k)

    def test_sweep_on_coincident_rows_gives_one_cluster_everywhere(self, tmp_path):
        data = tmp_path / "same.csv"
        data.write_text("1,2\n" * 5)
        out = tmp_path / "sweep"
        with pytest.warns(UserWarning, match="diameter bound is 0"):
            code = run_cli(["sweep", "--input", data, "--min-pts", 3, "--grid-size", 10,
                            "--out", out])
        assert code == 0
        curve = load_curve(out / "curve.csv")
        assert len(curve) == 10
        assert curve[-1].epsilon == np.finfo(np.float64).eps
        assert all((c.k, c.noise) == (1, 0.0) for c in curve)

    @pytest.mark.parametrize("grid_size", [1, 0, -3])
    def test_sweep_grid_size_below_two_fails_without_a_curve(self, tmp_path, capsys, blob_files,
                                                             grid_size):
        data, _ = blob_files
        out = tmp_path / "sweep"
        code = run_cli(["sweep", "--input", data, "--min-pts", 3, f"--grid-size={grid_size}",
                        "--out", out])
        assert code == 1
        assert f"grid size must be at least 2, got {grid_size}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, args, message", [
        ("tune", ["--itr", 0], "itr must be positive"),
        ("sweep", ["--grid-size", 1], "grid size must be at least 2"),
    ])
    def test_options_rejected_by_the_library_leave_no_directory(self, tmp_path, capsys, blob_files,
                                                                 command, args, message):
        # the output directory is made by the first write, not up front
        data, _ = blob_files
        out = tmp_path / "out" / "nested"
        assert run_cli([command, "--input", data, "--min-pts", 3, *args, "--out", out]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["tune", "tse", "dip", "oracle", "synth"])
    def test_negative_seed_exits_2_without_outputs(self, tmp_path, capsys, blob_files, command):
        data, _ = blob_files
        curve = tmp_path / "curve.csv"
        write_curve(curve, [CurveSample(0.5 * i, k, 0.0) for i, k in enumerate([0, 2, 3, 2, 1], 1)])
        args = {
            "tune": ["--input", data, "--min-pts", 3, "--itr", 2],
            "tse": ["--input", data, "--min-pts", 3, "--itr", 2, "--m", 2],
            "dip": ["--input", curve, "--n-boot", 5],
            "oracle": ["--n", 300, "--trials", 2, "--conc-n", 500, "--conc-trials", 1,
                       "--dims", 1],
            "synth": ["--k", 2, "--per-cluster", 5, "--dims", 2],
        }[command]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli([command, *args, "--seed", -1, "--out", out])
        assert exc.value.code == 2
        assert "--seed: must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

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
        # radii ascend, as load_curve requires
        curve = [CurveSample(2.5e-300, 0, 1.0), CurveSample(0.1, 7, 1 / 3),
                 CurveSample(0.30000000000000004, 12, 0.0)]
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

    def test_oracle_without_concentration_trials_fails_without_outputs(self, tmp_path, capsys):
        out = tmp_path / "oracle"
        code = run_cli(["oracle", "--n", 300, "--trials", 5, "--conc-n", 1000,
                        "--conc-trials", 0, "--dims", 1, "--out", out])
        assert code == 1
        assert "trials must be positive" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("command", ["tune", "tse", "sweep"])
    def test_overflowing_distances_fail_without_outputs(self, tmp_path, capsys, command):
        data = tmp_path / "huge.csv"
        points, _ = synth_blobs(5, 40, 2, 20.0, 0)
        np.savetxt(data, np.ldexp(points, 1000), delimiter=",", fmt="%.17g")
        out = tmp_path / command
        code = run_cli([command, "--input", data, "--min-pts", 4, "--out", out])
        assert code == 1
        assert "diameter bound overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_a_subnormal_diameter_bound_fails_the_default_grid(self, tmp_path, capsys):
        # under manhattan the bound 6e-322 is subnormal and its thousandth
        # rounds to 0: the default grid is refused for the data, not as
        # a grid the user gave
        data = tmp_path / "tiny.csv"
        data.write_text("0\n1e-322\n2e-322\n3e-322\n")
        out = tmp_path / "sweep"
        code = run_cli(["sweep", "--input", data, "--min-pts", 2, "--metric", "manhattan",
                        "--out", out])
        assert code == 1
        err = capsys.readouterr().err
        assert "diameter bound 6.03e-322 is too small" in err and "rescale the data" in err
        assert "epsilon grid values" not in err
        assert not out.exists()

    def test_cosine_zero_vector_fails_with_message(self, tmp_path, capsys):
        data = tmp_path / "zero.csv"
        data.write_text("0,0\n1,0\n1,0.01\n0,0\n")
        out = tmp_path / "run"
        code = run_cli(["dbscan", "--input", data, "--epsilon", 0.5, "--min-pts", 2,
                        "--metric", "cosine", "--out", out])
        assert code == 1
        assert "zero vectors" in capsys.readouterr().err
        assert not (out / "labels.csv").exists()

    def test_nan_epsilon_fails_without_outputs(self, tmp_path, capsys, blob_files):
        data, _ = blob_files
        out = tmp_path / "run"
        code = run_cli(["dbscan", "--input", data, "--epsilon", "nan", "--min-pts", 3,
                        "--out", out])
        assert code == 1
        assert "epsilon must be positive" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_infinite_epsilon_fails_without_outputs(self, tmp_path, capsys, blob_files):
        # a report would hold "epsilon": Infinity, which strict JSON rejects
        data, _ = blob_files
        out = tmp_path / "run"
        code = run_cli(["dbscan", "--input", data, "--epsilon", "inf", "--min-pts", 3,
                        "--out", out])
        assert code == 1
        assert "epsilon must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("beta", ["nan", "inf"])
    def test_non_finite_beta_fails_naming_it(self, tmp_path, capsys, beta):
        out = tmp_path / "oracle"
        code = run_cli(["oracle", "--n", 300, "--trials", 2, "--beta", beta, "--dims", 1,
                        "--out", out])
        assert code == 1
        assert "beta must be in (1, inf)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("k", [1, 3])
    def test_nan_separation_fails_without_outputs(self, tmp_path, capsys, k):
        out = tmp_path / "synth"
        code = run_cli(["synth", "--k", k, "--per-cluster", 5, "--dims", 2,
                        "--separation", "nan", "--out", out])
        assert code == 1
        assert "separation must be positive" in capsys.readouterr().err
        assert not (out / "data.csv").exists()

    @pytest.mark.parametrize("k", [1, 2])
    def test_infinite_separation_fails_without_outputs(self, tmp_path, capsys, k):
        out = tmp_path / "synth"
        code = run_cli(["synth", "--k", k, "--per-cluster", 5, "--dims", 2,
                        "--separation", "inf", "--out", out])
        assert code == 1
        assert "separation must be positive and finite" in capsys.readouterr().err
        assert not (out / "data.csv").exists()

    def test_missing_input_fails_without_outputs(self, tmp_path):
        out = tmp_path / "missing"
        code = run_cli(["dbscan", "--input", tmp_path / "nope.csv", "--epsilon", 1,
                        "--min-pts", 2, "--out", out])
        assert code != 0
        assert not (out / "labels.csv").exists()
        assert not (out / "report.json").exists()
