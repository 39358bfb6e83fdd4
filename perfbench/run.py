"""tsdbscan benchmark: one workload, one seed, one measuring window.

    python3 perfbench/run.py --workload blobs16 --seed 0 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is the checkout's own
``src/tsdbscan``. The run times set-up in several fresh processes, runs
the workload's CLI commands in one more fresh process, checks every
output against the independent oracle in ``oracle.py``, and prints the
metrics declared in ``BENCHMARK.json``: the end-to-end ones with
``--trace 0``, the per-layer ones (from spans, see ``tracing.py``) with
``--trace 1``. The last line of standard output is one JSON object; the
lines before it, and ``perfbench/results/``, hold the details and the
provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import LABELING_COMMANDS, MIN_PTS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ALL_COMMANDS = sorted({c for w in WORKLOADS.values() for c in w.commands})


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("TSDBSCAN_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], result: Path, deadline: float) -> dict:
    """Run the worker in a fresh process and return its JSON result."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv, "--src", str(SRC),
                           "--result", str(result)],
                          env=child_env(), cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {argv[0]} exited with code {proc.returncode}")
    return json.loads(result.read_text())


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "threads": {**{v: "1" for v in THREAD_VARS}, "TSDBSCAN_THREADS": "unset"},
    }


def output_checks(workload: str, seed: int, data: Path, work: Path, run: dict) -> list:
    """(name, ok, detail) for every output check of a workload run."""
    import oracle

    checks = []
    passes = run["passes"]
    first = {c["name"]: c for c in passes[0]["commands"]}
    # every pass, traced or not, must write the same outputs as the first
    for p in passes[1:]:
        for c in p["commands"]:
            name = c["name"]
            for fname in ("labels.csv", "curve.csv"):
                a, b = work / "pass0" / name / fname, work / p["dir"] / name / fname
                if a.is_file() or b.is_file():
                    same = a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()
                    checks.append((f"{p['dir']} {name} {fname} repeats", same, ""))
            same = (c["report"] or {}).get("results") == (first[name]["report"] or {}).get("results")
            checks.append((f"{p['dir']} {name} results repeat", same, ""))

    def report(name):
        rep = first[name]["report"]
        if rep is None:
            raise ValueError(f"{name} wrote no report")
        return rep

    x = oracle.load_points(data / "data.csv") if WORKLOADS[workload].synth else None
    for name in WORKLOADS[workload].commands:
        try:
            if name in LABELING_COMMANDS:
                ok, detail = oracle.check_labeling(x, work / "pass0" / name / "labels.csv",
                                                   report(name), MIN_PTS)
                checks.append((f"{name} labels vs oracle", ok, detail))
                ev = run["extras"][f"eval-{name}"]
                checks.append((f"eval {name}", ev["rc"] == 0 and ev["report"] is not None, ""))
            elif name == "sweep":
                checks += oracle.check_sweep(x, work / "pass0" / "sweep" / "curve.csv", MIN_PTS, seed)
            elif name == "dip":
                p_value = report("dip")["results"]["p_value"]
                again = (run["extras"]["dip-repeat"]["report"] or {}).get("results", {})
                checks.append(("dip p-value in [0, 1]", 0.0 <= p_value <= 1.0, f"p={p_value}"))
                checks.append(("dip p-value repeats", again.get("p_value") == p_value,
                               f"p={p_value}, again {again.get('p_value')}"))
            elif name == "oracle":
                checks += oracle.check_oracle(report(name), dims=(1, 2))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            checks.append((f"{name} output", False, f"{type(exc).__name__}: {exc}"))
    checks += [tuple(c) for c in run["counter_checks"]]
    return checks


def end_to_end(setups: list[dict], run: dict, attempted: int, failed: int) -> dict:
    untraced = [p["norm_s"] for p in run["passes"] if not p["traced"]]
    return {
        "setup_s": statistics.median(s["norm_s"] for s in setups),
        "pass_s": statistics.median(untraced),
        "peak_rss_mb": run["peak_rss_mb"],
        "ops_ok_frac": (attempted - failed) / attempted,
    }


def per_layer(run: dict) -> dict:
    passes = run["passes"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    m = dict(run["layers"])
    for name in ALL_COMMANDS:
        times = [c["norm_s"] for p in untraced for c in p["commands"] if c["name"] == name]
        if times:
            m[f"cli.{name}.s"] = statistics.median(times)
    first = {c["name"]: c["report"] or {} for c in passes[0]["commands"]}
    m["counter.dbscan_invocations"] = sum(r.get("dbscan_invocations", 0) for r in first.values())
    m["counter.point_evaluations"] = sum(r.get("point_evaluations", 0) for r in first.values())
    m["trace.overhead_frac"] = (statistics.median(p["norm_s"] for p in traced)
                                / statistics.median(p["norm_s"] for p in untraced) - 1)
    evals = {k[len("eval-"):]: v for k, v in run["extras"].items() if k.startswith("eval-")}
    if evals:
        m["metrics.eval.s"] = sum(v["norm_s"] for v in evals.values())
    for name, ev in evals.items():
        m[f"search.{name}_nmi"] = ((ev["report"] or {}).get("results") or {}).get("nmi", 0.0)
    if "tune" in first and "tse" in first:
        ts = first["tune"].get("results", {}).get("epsilon_star")
        tse = first["tse"].get("results", {}).get("epsilon_star")
        if ts and tse is not None:
            m["search.tse_eps_gap"] = abs(tse - ts) / ts
    return m


def measure(args, work: Path, results_dir: Path) -> tuple[list, dict, list]:
    """Set up, run the workload, and check its outputs: (setups, run, checks)."""
    deadline = time.monotonic() + DEADLINE_S
    data = work / "data"
    setups = []
    for i in range(SETUP_SAMPLES):
        out = data if i == 0 else work / f"setup{i}"
        setups.append(spawn(["setup", "--workload", args.workload, "--seed", str(args.seed),
                             "--data", str(out)], work / f"setup{i}.json", deadline))
    run = spawn(["run", "--workload", args.workload, "--seed", str(args.seed),
                 "--data", str(data), "--work", str(work), "--seconds", str(args.seconds),
                 "--trace", str(args.trace),
                 "--spans", str(results_dir / f"{args.workload}-seed{args.seed}-spans.json")],
                work / "run.json", deadline)

    checks = [(f"setup{i}", s["rc"] == 0, "") for i, s in enumerate(setups)]
    if WORKLOADS[args.workload].synth:
        # synth must write the same bytes for the same seed in every process
        ref = (data / "data.csv").read_bytes()
        checks += [(f"setup{i} data repeats", (work / f"setup{i}" / "data.csv").read_bytes() == ref, "")
                   for i in range(1, SETUP_SAMPLES)]
    checks += output_checks(args.workload, args.seed, data, work, run)
    checks += [(f"{p['dir']} {c['name']} exit code", c["rc"] == 0, c["error"] or "")
               for p in run["passes"] for c in p["commands"]]
    return setups, run, [(name, bool(ok), detail) for name, ok, detail in checks]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring window of the workload")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "tsdbscan" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no tsdbscan source under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setups, run, checks = measure(args, work, results_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed = len(checks), sum(not ok for _, ok, _ in checks)
    values = per_layer(run) if args.trace else end_to_end(setups, run, attempted, failed)
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {unknown}")
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in declared.items()}
    prov = provenance(args.seed)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "provenance": prov, "setups": setups, "run": run,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "metrics": metrics,
    }, indent=1))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={len(run['passes'])} "
          f"setups={len(setups)}")
    print("# " + json.dumps(prov))
    for p in run["passes"]:
        print(f"# {p['dir']}{' traced' if p['traced'] else ''}: " + ", ".join(
            f"{c['name']} {c['norm_s']:.4f} s normalised, {c['wall_s']:.4f} s wall "
            f"({(c['report'] or {}).get('dbscan_invocations')} dbscan, "
            f"{(c['report'] or {}).get('point_evaluations')} point evaluations)"
            for c in p["commands"]))
    for name, ok, detail in checks:
        print(f"# check {'ok  ' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
