"""Spans recorded from outside the program.

The tracer replaces the module-level names through which the layers of
``tsdbscan`` call each other with timing wrappers, and puts the originals
back afterwards; library source is not touched. A span is a list
``[name, parent_index, start, end, attrs]`` kept in memory; the parent is
the span open when the call began, so nesting follows the call stack.
"""

from __future__ import annotations

import importlib
import os
import statistics
from time import perf_counter


def _cells(args, kwargs, result):
    xa, xb = args[0], args[1]
    return (xa.shape[0] * xb.shape[0], xa.shape[1])


def _n_points(args, kwargs, result):
    return len(args[0])


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _n_boot(args, kwargs, result):
    return args[1]


def _result(args, kwargs, result):
    return result


# (module, attribute, span name, attrs(args, kwargs, result) or None)
PATCHES = (
    ("tsdbscan.cli", "ts_clustering", "search.ts_clustering", None),
    ("tsdbscan.cli", "tse_clustering", "search.tse_clustering", None),
    ("tsdbscan.cli", "sweep_curve", "curve.sweep", None),
    ("tsdbscan.cli", "dip_p_value", "curve.dip_p_value", _n_boot),
    ("tsdbscan.cli", "monte_carlo_expected_k", "theory.monte_carlo", None),
    ("tsdbscan.cli", "concentration_experiment", "theory.concentration", None),
    ("tsdbscan.cli", "load_matrix", "data_io.load_matrix", _file_bytes),
    ("tsdbscan.cli", "write_labels", "data_io.write", None),
    ("tsdbscan.cli", "write_curve", "data_io.write", None),
    ("tsdbscan.cli", "atomic_write_text", "data_io.write", None),
    # `load_curve` (the dip input) reads through the data_io name
    ("tsdbscan.data_io", "load_matrix", "data_io.load_matrix", _file_bytes),
    ("tsdbscan.search", "estimate_upper_bound", "search.upper_bound", None),
    ("tsdbscan.search", "estimate_lower_bound", "search.lower_bound", None),
    ("tsdbscan.search", "ternary_search", "search.ternary_search", None),
    ("tsdbscan.search", "tse_estimate", "search.tse_estimate", None),
    ("tsdbscan.search", "effective_k", "search.effective_k", _result),
    ("tsdbscan.search", "dbscan", "core.dbscan", _n_points),
    ("tsdbscan.search", "approximate_diameter_ub", "core.diameter_ub", None),
    # the sweep command imports the bound from tsdbscan.core at call time
    ("tsdbscan.core", "approximate_diameter_ub", "core.diameter_ub", None),
    ("tsdbscan.curve", "dbscan", "core.dbscan", _n_points),
    ("tsdbscan.curve", "dip_statistic", "curve.dip_statistic", None),
    ("tsdbscan.theory", "dbscan", "core.dbscan", _n_points),
    ("tsdbscan.core", "cdist", "core.distance", _cells),
)

# spans that open a search, sweep or theory stage; every span below one
# belongs to that stage
_STAGES = frozenset({
    "search.upper_bound", "search.lower_bound", "search.tse_estimate",
    "curve.sweep", "theory.monte_carlo", "theory.concentration",
})
_PIPELINES = frozenset({"search.ts_clustering", "search.tse_clustering"})
FINAL_SEARCH = "search.final_search"
FINAL_CLUSTERING = "search.final_clustering"


class Tracer:
    """Records spans while installed; one tracer per traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, attrs in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, attrs))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _annotate(spans):
    """Per span: its command span, its stage, and the time its children took."""
    n = len(spans)
    command, stage, child_s = [None] * n, [None] * n, [0.0] * n
    for i, (name, parent, t0, t1, _) in enumerate(spans):
        if parent < 0:
            command[i] = name
            continue
        child_s[parent] += t1 - t0
        command[i] = command[parent]
        parent_name = spans[parent][0]
        if name in _STAGES:
            stage[i] = name
        elif name == "search.ternary_search" and parent_name == "search.ts_clustering":
            stage[i] = FINAL_SEARCH
        elif name == "core.dbscan" and parent_name in _PIPELINES:
            stage[i] = FINAL_CLUSTERING
        else:
            stage[i] = stage[parent]
    return command, stage, child_s


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass (times in s, counts as numbers)."""
    command, stage, child_s = _annotate(spans)
    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    dbscan_n2 = kernel_cells_in_dbscan = 0
    dbscan_ms = []
    k_total = k_boundary = 0
    boots = 0
    for i, (name, parent, t0, t1, attrs) in enumerate(spans):
        dur = t1 - t0
        if parent < 0:
            add(f"{name}.self_s", dur - child_s[i])
        elif name == "core.distance":
            add("core.distance.s", dur)
            add("core.distance.calls", 1)
            add("core.distance.cells", attrs[0])
            if spans[parent][0] == "core.dbscan":
                kernel_cells_in_dbscan += attrs[0]
        elif name == "core.dbscan":
            add("core.dbscan.calls", 1)
            add("core.dbscan.s", dur)
            add("core.dbscan.self_s", dur - child_s[i])
            dbscan_ms.append(1e3 * dur)
            dbscan_n2 += attrs * attrs
            s = stage[i]
            if s == FINAL_CLUSTERING:
                add(f"{s}.s", dur)
            elif s is not None:
                key = "theory.dbscan.calls" if s.startswith("theory.") else f"{s}.probes"
                add(key, 1)
        elif name == "search.ternary_search" and stage[i] == FINAL_SEARCH:
            add(f"{FINAL_SEARCH}.s", dur)
        elif name in _STAGES or name in ("core.diameter_ub", "curve.dip_p_value",
                                         "data_io.load_matrix", "data_io.write"):
            add(f"{name}.s", dur)
            if name == "data_io.load_matrix":
                add("data_io.load_matrix.bytes", attrs)
            elif name == "curve.dip_p_value":
                boots += attrs
        elif name == "curve.dip_statistic":
            add("curve.dip_statistic.calls", 1)
        elif name == "search.effective_k":
            k_total += 1
            k_boundary += attrs in (0, 1)
    if dbscan_ms:
        m["core.dbscan.p50_ms"] = statistics.median(dbscan_ms)
        m["core.distance.cells_per_n2"] = kernel_cells_in_dbscan / dbscan_n2
    if k_total:
        m["search.probes.boundary_frac"] = k_boundary / k_total
    if boots:
        m["curve.dip.boots_per_s"] = boots / m["curve.dip_p_value.s"]
    return m


def counter_check(spans, reports: dict) -> list[tuple[str, bool, str]]:
    """Compare each command's report counters with its spans.

    ``dbscan_invocations`` counts every traced ``dbscan`` call except the
    final clustering of ``tune``/``tse``, which runs without the counters;
    ``point_evaluations`` counts rows x cols x dims of the distance blocks
    those counted calls computed.
    """
    command, stage, _ = _annotate(spans)
    counted = {}
    for i, (name, parent, _, _, attrs) in enumerate(spans):
        if name == "core.dbscan" and stage[i] != FINAL_CLUSTERING:
            c = counted.setdefault(command[i], [0, 0])
            c[0] += 1
        elif name == "core.distance" and spans[parent][0] == "core.dbscan" \
                and stage[parent] != FINAL_CLUSTERING:
            c = counted.setdefault(command[i], [0, 0])
            c[1] += attrs[0] * attrs[1]
    out = []
    for cmd, report in reports.items():
        want = counted.get(f"cli.{cmd}", [0, 0])
        got = [report.get("dbscan_invocations"), report.get("point_evaluations")]
        out.append((f"counters {cmd}", got == want,
                    f"report (invocations, point_evaluations)={tuple(got)}, spans={tuple(want)}"))
    return out
