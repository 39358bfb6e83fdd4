"""The benchmark's tracer patches module-level names of tsdbscan from
outside; every name it patches must still exist, or traced runs break,
and the program must still call through it, or its span silently times
less than it did."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from tsdbscan import core
from tsdbscan.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# patched names that no command calls through; the benchmark's tracer
# should patch tsdbscan.curve.approximate_diameter_ub and drop the other
STALE = {("tsdbscan.core", "approximate_diameter_ub"), ("tsdbscan.curve", "dbscan")}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PATCHES = [p[:2] for p in load_tracing().PATCHES]
PATCHED = sorted(set(PATCHES))


@pytest.mark.parametrize("module_name,attr", PATCHES)
def test_patched_name_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.fixture(scope="module")
def calls(tmp_path_factory):
    """Calls through each patched name in a tiny run of every traced command."""
    counts = dict.fromkeys(PATCHED, 0)

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    out = tmp_path_factory.mktemp("calls")
    data = out / "synth" / "data.csv"
    commands = [
        ["synth", "--k", 3, "--per-cluster", 30, "--dims", 4, "--separation", 30, "--seed", 2],
        ["tune", "--input", data, "--min-pts", 3, "--itr", 2],
        ["tse", "--input", data, "--min-pts", 3, "--itr", 2, "--m", 2],
        ["sweep", "--input", data, "--min-pts", 3, "--grid-size", 20],
        ["dip", "--input", out / "sweep" / "curve.csv", "--n-boot", 5],
        ["oracle", "--n", 300, "--trials", 2, "--conc-n", 500, "--conc-trials", 1, "--dims", 1],
    ]
    with pytest.MonkeyPatch.context() as mp:
        for module_name, attr in PATCHED:
            module = importlib.import_module(module_name)
            mp.setattr(module, attr, counted((module_name, attr), getattr(module, attr)))
        for args in commands:
            assert main([str(a) for a in [*args, "--out", out / args[0]]]) == 0
    return counts


@pytest.mark.parametrize("module_name,attr", [
    pytest.param(*p, marks=pytest.mark.xfail(strict=True, reason="stale patch, ROADMAP item 1"))
    if p in STALE else p
    for p in PATCHED
])
def test_patched_name_is_on_the_call_path(calls, module_name, attr):
    assert calls[module_name, attr] > 0


def traced(tmp_path, commands):
    """Runs ``commands`` on a tiny blob set under the benchmark's tracer;
    returns the tracing module, the spans and each command's report."""
    tracing = load_tracing()
    data = tmp_path / "synth" / "data.csv"
    assert main([str(a) for a in ["synth", "--k", 3, "--per-cluster", 30, "--dims", 8,
                                  "--separation", 30, "--seed", 2, "--out", data.parent]]) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, args in commands.items():
            argv = [name, "--input", data, "--min-pts", 3, *args, "--out", tmp_path / name]
            assert tracer.wrap(f"cli.{name}", main)([str(a) for a in argv]) == 0
    finally:
        tracer.uninstall()
    reports = {name: json.loads((tmp_path / name / "report.json").read_text()) for name in commands}
    return tracing, tracer.spans, reports


def test_traced_runs_pass_the_counter_check(tmp_path):
    # the benchmark's traced runs compare each report's counters with the
    # spans: one dbscan span per counted run, and rows x cols x D over the
    # kernel calls inside them. At D = 8 every search stage runs on at
    # least two columns, and each of its datasets fits one block, so each
    # caches its matrix: the first probe computes it, and the later probes
    # read it and add no cell
    commands = {
        "tune": ["--itr", 2],
        "tse": ["--itr", 2, "--m", 2],
        "sweep": ["--grid-size", 20],
    }
    tracing, spans, reports = traced(tmp_path, commands)
    assert reports["tune"]["dbscan_invocations"] == 6 * 2
    checks = tracing.counter_check(spans, reports)
    assert len(checks) == len(commands) and all(ok for _, ok, _ in checks), checks


def test_traced_group_builds_pass_the_counter_check(tmp_path, monkeypatch):
    # over a budget of 1000 cells the 90 x 8 set of the final search and
    # its 90 x 2 projection of the lower bound (8100 cells each) no longer
    # fit one block, so the first probe of each search builds the set's
    # groups inside its traced dbscan: ceil(sqrt(90 / 2)) = 7 centres, each
    # a 1 x 90 kernel block, counted in that run. The 18-row subsets of the
    # upper bound and of TSE (324 cells) still cache their matrix
    monkeypatch.setattr(core, "_BLOCK_CELLS", 1000)
    commands = {"tune": ["--itr", 2], "tse": ["--itr", 2, "--m", 2]}
    tracing, spans, reports = traced(tmp_path, commands)
    assert reports["tune"]["dbscan_invocations"] == 6 * 2
    assert reports["tse"]["dbscan_invocations"] == 4 * 2 + 2 * 2 * 2
    builds = [attrs for name, parent, _, _, attrs in spans
              if name == "core.distance" and spans[parent][0] == "core.dbscan" and attrs in ((90, 8), (90, 2))]
    # tune builds for its lower bound and its final search, tse for its lower bound
    assert sorted(builds) == [(90, 2)] * 14 + [(90, 8)] * 7
    checks = tracing.counter_check(spans, reports)
    assert len(checks) == len(commands) and all(ok for _, ok, _ in checks), checks
