"""The functions the benchmark's tracer wraps exist in homspec, with the parameters it reads.

``pipebench/run.py --trace 1`` replaces each function named in
``pipebench/spans.py``'s ``WRAPPED`` by a wrapper, looked up with getattr,
and its ``COUNTERS`` read some calls' arguments by parameter name; a
function or parameter deleted or renamed here would crash every traced
run.  The module is loaded by path and its tracer is not installed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "pipebench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("pipebench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()
WRAPPED = SPANS.WRAPPED


@pytest.mark.parametrize("module_name,func_name", [
    pytest.param(module_name, func_name, id=f"{module_name}.{func_name}")
    for module_name, func_names in WRAPPED.items()
    for func_name in func_names
])
def test_wrapped_function_exists(module_name, func_name):
    module = importlib.import_module(f"homspec.{module_name}")
    assert callable(getattr(module, func_name, None))


@pytest.mark.parametrize("name,parameter", [
    ("zhf.write_frames", "path"),
    ("mapio.write_map_csv", "path"),
    ("detector.raw_coincidences", "batch"),
])
def test_counted_argument_exists(name, parameter):
    # The tracer binds each call's arguments to the wrapped function's
    # parameter names, and COUNTERS reads these by name.
    assert name in SPANS.COUNTERS
    module_name, func_name = name.split(".")
    func = getattr(importlib.import_module(f"homspec.{module_name}"), func_name)
    assert parameter in inspect.signature(func).parameters
