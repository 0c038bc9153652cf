"""Every entry point the benchmark tracer wraps still exists in the package.

``perfbench/tracer.py`` rebinds afspectral functions and methods by name from
outside the package and reports a name it cannot find as a missing entry
point.  These checks fail first when a function or method it names is
deleted or renamed.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def test_traced_functions_resolve(tracer):
    for name, (module, attr) in tracer.FUNCTIONS.items():
        mod = importlib.import_module(f"afspectral.{module}")
        assert callable(getattr(mod, attr, None)), name


def test_traced_methods_are_defined_on_their_class(tracer):
    for name, (module, cls_name, attr) in tracer.METHODS.items():
        cls = getattr(importlib.import_module(f"afspectral.{module}"), cls_name, None)
        assert cls is not None and attr in cls.__dict__, name
