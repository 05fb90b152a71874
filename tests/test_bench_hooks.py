"""The functions the benchmark's tracer wraps exist in homspec.

``pipebench/run.py --trace 1`` replaces each function named in
``pipebench/spans.py``'s ``WRAPPED`` by a wrapper, looked up with getattr;
a function deleted or renamed here would crash every traced run.  The
module is loaded by path and its tracer is not installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "pipebench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("pipebench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPPED = _load_spans().WRAPPED


@pytest.mark.parametrize("module_name,func_name", [
    pytest.param(module_name, func_name, id=f"{module_name}.{func_name}")
    for module_name, func_names in WRAPPED.items()
    for func_name in func_names
])
def test_wrapped_function_exists(module_name, func_name):
    module = importlib.import_module(f"homspec.{module_name}")
    assert callable(getattr(module, func_name, None))
