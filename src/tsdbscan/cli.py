"""Command-line surface: clustering, tuning, sweeps, dip tests, theory
checks, evaluation, and synthetic data.

Each command declares only the options it reads, so the report.json
every run writes echoes exactly the configuration (seed included) that
replays it bit-for-bit. Output files are written atomically (temp file
+ rename).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .core import METRICS, NOISE, RunStats, count_clusters, dbscan, noise_fraction
from .curve import curve_to_sample, dip_p_value, dip_statistic, epsilon_grid, sweep_curve
from .data_io import (
    atomic_write_text,
    load_curve,
    load_labels,
    load_matrix,
    synth_blobs,
    write_curve,
    write_labels,
)
from .metrics import ari, exclude_noise, nmi
from .search import TuneConfig, ts_clustering, tse_clustering
from .theory import (
    ConcentrationConfig,
    concentration_experiment,
    expected_k_closed_form,
    mode_epsilon_closed_form,
    monte_carlo_expected_k,
)

REPORT_VERSION = "1"


def non_negative_int(text: str) -> int:
    """An argparse type: numpy's seed sequences take no negative entropy."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _add_common(p: argparse.ArgumentParser, *, matrix_input: bool, seed: bool) -> None:
    if matrix_input:
        p.add_argument("--input", required=True, help="input CSV/TSV matrix path")
        p.add_argument("--format", choices=["csv", "tsv"], default="csv")
    p.add_argument("--out", required=True, help="output directory")
    if seed:
        p.add_argument("--seed", type=non_negative_int, default=0)


def _add_probe(p: argparse.ArgumentParser) -> None:
    p.add_argument("--min-pts", type=int, required=True)
    p.add_argument("--metric", choices=METRICS, default="euclidean")


def build_parser() -> argparse.ArgumentParser:
    # no prefixes: an option added later must not change what an old one means
    parser = argparse.ArgumentParser(prog="tsdbscan", allow_abbrev=False,
                                     description="DBSCAN with ternary-search radius tuning")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, text: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=text, allow_abbrev=False)

    p = command("dbscan", "cluster at a fixed radius")
    _add_common(p, matrix_input=True, seed=False)
    p.add_argument("--epsilon", type=float, required=True)
    _add_probe(p)

    for name, text in (("tune", "tune the radius with ternary search and cluster"),
                       ("tse", "tune with the subsampled estimator and cluster")):
        p = command(name, text)
        _add_common(p, matrix_input=True, seed=True)
        _add_probe(p)
        p.add_argument("--itr", type=int, default=6)
        p.add_argument("--alpha", type=float, default=0.2)
        if name == "tse":
            p.add_argument("--m", type=int, default=30)

    p = command("sweep", "evaluate k(eps) on an even grid")
    _add_common(p, matrix_input=True, seed=False)
    _add_probe(p)
    p.add_argument("--grid-size", type=int, default=100)

    p = command("dip", "dip-test a sweep curve CSV")
    p.add_argument("--input", required=True, help="sweep curve CSV path")
    _add_common(p, matrix_input=False, seed=True)
    p.add_argument("--n-boot", type=int, default=1000)

    p = command("oracle", "check the uniform-data theory empirically")
    _add_common(p, matrix_input=False, seed=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--rho", type=float, default=0.1)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--dims", type=int, nargs="+", default=[1, 2])
    p.add_argument("--conc-n", type=int, default=5000)
    p.add_argument("--conc-trials", type=int, default=10)

    p = command("eval", "score predicted labels against ground truth")
    _add_common(p, matrix_input=False, seed=False)
    p.add_argument("--input", required=True, help="predicted labels CSV (one per line)")
    p.add_argument("--labels", required=True, help="ground-truth labels CSV (one per line)")

    p = command("synth", "generate Gaussian blob data with labels")
    _add_common(p, matrix_input=False, seed=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--per-cluster", type=int, default=100)
    p.add_argument("--dims", type=int, default=8)
    p.add_argument("--separation", type=float, default=20.0)

    return parser


def _write_labeling(outdir: Path, x, labeling) -> dict:
    """Write labels.csv; return the labeling's part of the results."""
    write_labels(outdir / "labels.csv", labeling.labels)
    return {
        "k": count_clusters(labeling),
        "noise_fraction": noise_fraction(labeling),
        "n_points": len(x),
        "n_dims": x.shape[1],
    }


def _run_dbscan(args, outdir: Path, stats: RunStats) -> dict:
    x = load_matrix(args.input, args.format)
    labeling = dbscan(x, args.epsilon, args.min_pts, metric=args.metric, stats=stats)
    return {"epsilon": args.epsilon, **_write_labeling(outdir, x, labeling)}


def _run_tune(args, outdir: Path, stats: RunStats) -> dict:
    x = load_matrix(args.input, args.format)
    # only tse takes --m
    cfg = TuneConfig(min_pts=args.min_pts, itr=args.itr, alpha=args.alpha,
                     m=getattr(args, "m", TuneConfig.m), seed=args.seed, metric=args.metric)
    runner = tse_clustering if args.command == "tse" else ts_clustering
    epsilon, labeling = runner(x, cfg, stats=stats)
    return {"epsilon_star": epsilon, **_write_labeling(outdir, x, labeling)}


def _run_sweep(args, outdir: Path, stats: RunStats) -> dict:
    x = load_matrix(args.input, args.format)
    grid = epsilon_grid(x, args.grid_size, args.metric)
    curve = sweep_curve(x, grid, args.min_pts, metric=args.metric, stats=stats)
    write_curve(outdir / "curve.csv", curve)
    mode = max(curve, key=lambda c: c.k)
    return {
        "grid_size": args.grid_size,
        "mode_epsilon": mode.epsilon,
        "mode_k": mode.k,
    }


def _run_dip(args, outdir: Path, stats: RunStats) -> dict:
    curve = load_curve(args.input)
    sample = curve_to_sample(curve)
    dip = dip_statistic(sample)
    p = dip_p_value(sample, args.n_boot, args.seed)
    mode = max(curve, key=lambda c: c.k)
    return {
        "dip": dip,
        "p_value": p,
        "n_boot": args.n_boot,
        "sample_size": int(len(sample)),
        "mode_epsilon": mode.epsilon,
        "mode_k": mode.k,
    }


def _run_oracle(args, outdir: Path, stats: RunStats) -> dict:
    n = args.n
    mode_eps = mode_epsilon_closed_form(n)
    mean, stderr = monte_carlo_expected_k(n, np.log(2) / n, args.trials, args.seed, stats=stats)
    ccfg = ConcentrationConfig(rho=args.rho, beta=args.beta, delta=args.delta)
    concentration = [
        concentration_experiment(ccfg, d, args.conc_n, args.conc_trials, args.seed, stats=stats)
        for d in args.dims
    ]
    return {
        "n": n,
        "closed_form_mode_epsilon": mode_eps,
        "closed_form_peak": expected_k_closed_form(n, mode_eps),
        "monte_carlo_mean_k_at_ln2_over_n": mean,
        "monte_carlo_std_error": stderr,
        "concentration": concentration,
    }


def _run_eval(args, outdir: Path, stats: RunStats) -> dict:
    predicted = load_labels(args.input)
    truth = load_labels(args.labels)
    kept_t, kept_p = exclude_noise(truth, predicted)
    k = int(len(np.unique(predicted[predicted != NOISE])))
    return {
        "nmi": nmi(truth, predicted),
        "ari": ari(truth, predicted),
        "nmi_normalization": "arithmetic-mean",
        "noise_fraction": float(np.count_nonzero(predicted == NOISE) / len(predicted)),
        "k": k,
        "excluded_count": int(len(predicted) - len(kept_p)),
    }


def _run_synth(args, outdir: Path, stats: RunStats) -> dict:
    points, labels = synth_blobs(args.k, args.per_cluster, args.dims,
                                 args.separation, args.seed)
    lines = [",".join(repr(float(v)) for v in row) for row in points]
    atomic_write_text(outdir / "data.csv", "\n".join(lines) + "\n")
    write_labels(outdir / "labels.csv", labels)
    return {"n_points": len(points), "n_dims": args.dims, "k": args.k}


_RUNNERS = {
    "dbscan": _run_dbscan,
    "tune": _run_tune,
    "tse": _run_tune,
    "sweep": _run_sweep,
    "dip": _run_dip,
    "oracle": _run_oracle,
    "eval": _run_eval,
    "synth": _run_synth,
}


def run(args: argparse.Namespace) -> int:
    outdir = Path(args.out)
    stats = RunStats()
    start = time.perf_counter()
    try:
        results = _RUNNERS[args.command](args, outdir, stats)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = {
        "version": REPORT_VERSION,
        "tool_version": __version__,
        "command": args.command,
        "config": {k.replace("_", "-"): v for k, v in vars(args).items() if k != "command"},
        "results": results,
        "dbscan_invocations": stats.dbscan_invocations,
        "point_evaluations": stats.point_evaluations,
        "curve_builds": stats.curve_builds,
        "wall_clock_seconds": time.perf_counter() - start,
    }
    atomic_write_text(outdir / "report.json", json.dumps(report, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
