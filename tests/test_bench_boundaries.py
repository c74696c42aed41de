"""The functions that the benchmark's tracer wraps must exist where it looks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _boundaries() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in _boundaries().items() for name in names])
def test_tracer_wrap_target_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"
