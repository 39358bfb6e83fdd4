"""The benchmark's workloads: the data each one generates from the seed and
the ``tsdbscan`` CLI commands one pass runs on it.

Only the standard library is imported here, because the child process
imports this module before it starts its set-up timer.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

MIN_PTS = 10


@dataclass(frozen=True)
class Workload:
    # arguments of `tsdbscan synth` (seed and output added per run); None
    # when the commands generate their own data from the seed
    synth: tuple[str, ...] | None
    commands: tuple[str, ...]


WORKLOADS = {
    # the paper's and the acceptance suite's shape: N=2000, D=16; the only
    # workload that runs the sweep and the dip test
    "blobs16": Workload(
        synth=("--k", "20", "--per-cluster", "100", "--dims", "16", "--separation", "20"),
        commands=("tune", "tse", "sweep", "dip"),
    ),
    # large N at low D: dense 1024 x N distance blocks, bound by memory traffic
    "blobs2-large": Workload(
        synth=("--k", "16", "--per-cluster", "500", "--dims", "2", "--separation", "20"),
        commands=("tune", "tse"),
    ),
    # many small probes with ~250 clusters each: per-call and per-cluster
    # overhead rather than distance arithmetic; covers the theory layer
    "uniform1d": Workload(synth=None, commands=("oracle",)),
}

# commands whose output is a labels.csv scored against the synth ground truth
LABELING_COMMANDS = ("tune", "tse")


def synth_argv(workload: Workload, seed: int, out: Path) -> list[str]:
    return ["synth", *workload.synth, "--seed", str(seed), "--out", str(out)]


def command_argv(command: str, seed: int, data_dir: Path, pass_dir: Path) -> list[str]:
    """argv of one command of a pass; outputs go to ``pass_dir / command``."""
    out = ["--out", str(pass_dir / command)]
    data = ["--input", str(data_dir / "data.csv"), "--min-pts", str(MIN_PTS)]
    if command in ("tune", "tse", "sweep"):
        return [command, *data, *out]
    if command == "dip":
        return ["dip", "--input", str(pass_dir / "sweep" / "curve.csv"), *out]
    if command == "oracle":
        return ["oracle", "--n", "1000", "--trials", "200", "--conc-n", "2000",
                "--conc-trials", "10", "--dims", "1", "2", "--seed", str(seed), *out]
    raise ValueError(f"unknown command {command!r}")
