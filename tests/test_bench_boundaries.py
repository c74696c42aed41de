"""The functions that the benchmark's tracer wraps must exist where it looks,
and every name a module imports is used there or wrapped there."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"
SOURCES = sorted((ROOT / "src" / "biharm").glob("*.py"))


def _boundaries() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in _boundaries().items() for name in names])
def test_tracer_wrap_target_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"


def _unused_imports(path: Path) -> set:
    """Names that ``path`` imports but never reads (``__all__`` counts as a read)."""
    tree = ast.parse(path.read_text())
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return imported - used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used_or_traced(path):
    module = "biharm" if path.stem == "__init__" else f"biharm.{path.stem}"
    dead = _unused_imports(path) - set(_boundaries().get(module, ()))
    assert not dead, f"{module} imports {sorted(dead)} and never uses them"
