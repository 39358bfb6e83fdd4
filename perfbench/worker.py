"""Child process of the benchmark, started fresh for every sample.

``setup`` times a fresh ``import tsdbscan`` plus ``tsdbscan synth``
writing the workload's data. ``run`` calls ``tsdbscan.cli.main``
in-process for each command of a pass, repeating passes while they fit in
the measuring time; with tracing on it alternates an untraced and a
traced pass. Either way the result goes to ``--result`` as JSON.

Every timing is reported twice: as wall time, and as wall time at a
nominal machine speed. The shared hosts the benchmark runs on change
speed by up to 1.8x for tens of seconds at a time, and process CPU time
inflates with wall time, so neither is steady on its own. A speed probe
therefore times a fixed piece of pure-Python work every 20 ms from a
signal handler while the commands run; the normalised time of a command
is its wall time, less the probe's own time, times the nominal duration
of that work, times the mean of the inverse of its measured durations in
the same window (the mean speed, since the samples are evenly spaced).

Only the standard library is imported before the set-up timer starts.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

from workloads import LABELING_COMMANDS, WORKLOADS, command_argv, synth_argv


def _import_cli(src: Path):
    import tsdbscan.cli

    # never measure an installed copy instead of the checkout's source
    if Path(tsdbscan.cli.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"tsdbscan imported from {tsdbscan.cli.__file__}, not {src}")
    return tsdbscan.cli


# duration of one probe's work at nominal speed: the unit that normalised
# times are expressed in, close to the work's time on an unloaded core of
# an Intel Xeon 2-vCPU virtual machine
NOMINAL_REF_S = 250e-6
PROBE_INTERVAL_S = 0.02


def _reference_work() -> int:
    total = 0
    for i in range(3000):
        total += i * i % 7
    return total


class SpeedProbe:
    """Samples the machine's speed from SIGALRM while it is active."""

    def __init__(self):
        self.samples: list[float] = []

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _reference_work()
        self.samples.append(time.perf_counter() - start)

    def timer(self):
        """Start a measurement; calling the result returns (wall_s, norm_s)."""
        first, start = len(self.samples), time.perf_counter()

        def stop() -> tuple[float, float]:
            wall = time.perf_counter() - start
            window = self.samples[first:]
            if not window:  # too short to be sampled
                return wall, wall
            speed = NOMINAL_REF_S * sum(1 / s for s in window) / len(window)
            return wall, (wall - sum(window)) * speed

        return stop


def setup(args) -> dict:
    with SpeedProbe() as probe:
        stop = probe.timer()
        cli = _import_cli(args.src)
        workload = WORKLOADS[args.workload]
        rc = 0
        if workload.synth is not None:
            rc = cli.main(synth_argv(workload, args.seed, args.data))
        wall, norm = stop()
    return {"wall_s": wall, "norm_s": norm, "rc": rc}


def _call(main, argv, out: Path, probe: SpeedProbe) -> dict:
    """Run one CLI command; its exit code, wall and normalised time, and report."""
    stop = probe.timer()
    try:
        rc, error = main(argv), None
    except Exception:  # a crashing command is a failed operation, not a crashed benchmark
        rc, error = None, traceback.format_exc()
        print(error, file=sys.stderr)
    wall, norm = stop()
    report = out / "report.json"
    return {"rc": rc, "wall_s": wall, "norm_s": norm, "error": error,
            "report": json.loads(report.read_text()) if report.is_file() else None}


def run_pass(cli, workload, args, index: int, tracer, probe: SpeedProbe) -> dict:
    pass_dir = args.work / f"pass{index}"
    commands = []
    if tracer is not None:
        tracer.install()
    try:
        for name in workload.commands:
            main = cli.main if tracer is None else tracer.wrap(f"cli.{name}", cli.main)
            argv = command_argv(name, args.seed, args.data, pass_dir)
            commands.append({"name": name, **_call(main, argv, pass_dir / name, probe)})
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"dir": pass_dir.name, "traced": tracer is not None, "commands": commands,
            "wall_s": sum(c["wall_s"] for c in commands),
            "norm_s": sum(c["norm_s"] for c in commands)}


def run(args) -> dict:
    cli = _import_cli(args.src)
    import tracing

    workload = WORKLOADS[args.workload]
    modes = (False, True) if args.trace else (False,)
    passes, tracers = [], []
    extras = {}
    with SpeedProbe() as probe:
        start = time.perf_counter()
        while True:
            cycle_start = time.perf_counter()
            for traced in modes:
                tracer = tracing.Tracer() if traced else None
                passes.append(run_pass(cli, workload, args, len(passes), tracer, probe))
                if tracer is not None:
                    tracers.append((len(passes) - 1, tracer))
            now = time.perf_counter()
            # start another cycle only if it is expected to end within the time
            if now - start + (now - cycle_start) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        # outside the passes: score the labelings, and run the dip test once
        # more so that its p-value can be checked for repeating exactly
        for name in workload.commands:
            if name in LABELING_COMMANDS:
                out = args.work / f"eval-{name}"
                extras[f"eval-{name}"] = _call(cli.main, [
                    "eval", "--input", str(args.work / "pass0" / name / "labels.csv"),
                    "--labels", str(args.data / "labels.csv"), "--out", str(out)], out, probe)
            elif name == "dip":
                out = args.work / "dip-repeat"
                argv = command_argv("dip", args.seed, args.data, args.work / "pass0")
                argv[argv.index("--out") + 1] = str(out)
                extras["dip-repeat"] = _call(cli.main, argv, out, probe)

    layers, counter_checks = [], []
    for index, tracer in tracers:
        layers.append(tracing.layer_metrics(tracer.spans))
        reports = {c["name"]: c["report"] or {} for c in passes[index]["commands"]}
        counter_checks += [(f"pass{index} {name}", ok, detail)
                           for name, ok, detail in tracing.counter_check(tracer.spans, reports)]
    if tracers:
        # spans stay in memory during the passes and are written once, here
        args.spans.write_text(json.dumps(
            {f"pass{index}": tracer.spans for index, tracer in tracers}))
    keys = sorted({k for m in layers for k in m})
    return {
        "passes": passes,
        "extras": extras,
        "peak_rss_mb": peak_rss_mb,
        "layers": {k: statistics.median(m.get(k, 0) for m in layers) for k in keys},
        "counter_checks": counter_checks,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("mode", choices=["setup", "run"])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--src", type=Path, required=True, help="the checkout's src directory")
    p.add_argument("--data", type=Path, required=True, help="directory of data.csv and labels.csv")
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--work", type=Path, help="output directory of the passes (run)")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = p.parse_args()
    result = setup(args) if args.mode == "setup" else run(args)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
