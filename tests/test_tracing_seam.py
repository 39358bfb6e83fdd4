"""The benchmark's tracer patches module-level names of tsdbscan from
outside; every name it patches must still exist, or traced runs break,
and the program must still call through it, or its span silently times
less than it did."""

import importlib
import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest
from scipy.spatial.distance import cdist

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


def traced(tmp_path, commands, dims=8):
    """Runs ``commands`` on a tiny blob set of 90 rows and ``dims`` columns
    under the benchmark's tracer; returns the tracing module, the spans and
    each command's report."""
    tracing = load_tracing()
    data = tmp_path / "synth" / "data.csv"
    assert main([str(a) for a in ["synth", "--k", 3, "--per-cluster", 30, "--dims", dims,
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
    # reads a curve: the first probe builds it, computing the set's whole
    # matrix in one kernel call inside its dbscan span, and the later
    # probes read it and add no cell
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
    # a 1 x 90 kernel block, counted in that run. The final clustering of
    # tune reuses the final search's set and builds nothing; that of tse
    # prepares the 90 x 8 rows once more and builds its 7 centres inside
    # the uncounted final-clustering span, which the counter check leaves
    # out. The 18-row subsets of the upper bound and of TSE (324 cells)
    # still fit one block and read a curve. The tracer wraps the kernel recorded here,
    # so the k-th kernel span is the k-th call recorded
    monkeypatch.setattr(core, "_BLOCK_CELLS", 1000)
    shapes = []

    def recorded(a, b, *args, **kwargs):
        shapes.append((a.shape, b.shape))
        return cdist(a, b, *args, **kwargs)

    monkeypatch.setattr(core, "cdist", recorded)
    commands = {"tune": ["--itr", 2], "tse": ["--itr", 2, "--m", 2]}
    tracing, spans, reports = traced(tmp_path, commands)
    assert reports["tune"]["dbscan_invocations"] == 6 * 2
    assert reports["tse"]["dbscan_invocations"] == 4 * 2 + 2 * 2 * 2
    command, stage, _ = tracing._annotate(spans)
    kernels = [i for i, span in enumerate(spans) if span[0] == "core.distance"]
    assert len(kernels) == len(shapes)
    builds = Counter((command[i], stage[spans[i][1]], b[1]) for i, (a, b) in zip(kernels, shapes)
                     if a[0] == 1 and b[0] == 90 and spans[spans[i][1]][0] == "core.dbscan")
    assert builds == {("cli.tune", "search.lower_bound", 2): 7, ("cli.tune", "search.final_search", 8): 7,
                      ("cli.tse", "search.lower_bound", 2): 7, ("cli.tse", "search.final_clustering", 8): 7}
    checks = tracing.counter_check(spans, reports)
    assert len(checks) == len(commands) and all(ok for _, ok, _ in checks), checks


def test_traced_one_column_curves_pass_the_counter_check(tmp_path):
    # at D = 2 the lower bound keeps ceil(0.2 * 2) = 1 column, and so does
    # each TSE search: their prepared 90 x 1 and 18 x 1 sets read every
    # probe off a one-column curve, built inside the traced dbscan of each
    # search's first probe, whose kernel values count as D = 1 cells of
    # that run. The 18 x 2 upper bound and tune's 90 x 2 final search fit
    # one block and build a curve from their whole matrix. So tune builds 3 curves, and
    # tse 1 + 1 for its bounds and one per TSE search
    commands = {"tune": ["--itr", 2], "tse": ["--itr", 2, "--m", 2]}
    tracing, spans, reports = traced(tmp_path, commands, dims=2)
    assert reports["tune"]["curve_builds"] == 3
    assert reports["tse"]["curve_builds"] == 2 + 2
    assert reports["tse"]["dbscan_invocations"] == 4 * 2 + 2 * 2 * 2
    checks = tracing.counter_check(spans, reports)
    assert len(checks) == len(commands) and all(ok for _, ok, _ in checks), checks
