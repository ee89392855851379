"""Names the benchmark's tracer (bench/tracing.py) looks up in ``mahler``.

The tracer rebinds each named module attribute and class method at run
time, so a deletion or rename in ``src/`` breaks the traced benchmark run.
This checks the names without installing the tracer."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("mod_name,attr",
                         [entry[:2] for entry in tracing.SPANS + tracing.COUNTS],
                         ids=lambda v: v)
def test_traced_function_exists(mod_name, attr):
    assert callable(getattr(importlib.import_module(mod_name), attr, None))


@pytest.mark.parametrize("mod_name,cls_name,attr",
                         [entry[:3] for entry in tracing.METHOD_SPANS],
                         ids=lambda v: v)
def test_traced_method_exists(mod_name, cls_name, attr):
    cls = getattr(importlib.import_module(mod_name), cls_name)
    assert callable(vars(cls).get(attr))
