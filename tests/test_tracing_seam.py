"""The benchmark's tracer patches module-level names of tsdbscan from
outside; every name it patches must still exist, or traced runs break.

This guards only against removed names. It cannot tell whether the
program still calls a function through the name that is patched: a name
that resolves but is no longer on the call path passes here while its
span silently times less than it did."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


@pytest.mark.parametrize("module_name,attr", [p[:2] for p in load_patches()])
def test_patched_name_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))
