"""The names of moilab that the benchmark under bench/ binds still resolve,
so that renaming or deleting one fails here and not only in the benchmark."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from moilab.spectral import FiniteSpectralMeasure

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracing():
    """bench/tracing.py, loaded by path: bench is not a package."""
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _tracing()


@pytest.mark.parametrize("name", TRACING.FUNCTION_SPANS)
def test_traced_function_resolves(name):
    layer, attr = name.split(".")
    assert callable(getattr(importlib.import_module(f"moilab.{layer}"), attr))


@pytest.mark.parametrize("layer", TRACING.MODULES)
def test_traced_module_imports(layer):
    importlib.import_module(f"moilab.{layer}")


def test_measure_members_the_benchmark_reads():
    # tracing wraps projection_stack on the class; workloads reads projections
    assert callable(FiniteSpectralMeasure.projection_stack)
    assert isinstance(FiniteSpectralMeasure.projections, property)


def test_workload_imports_resolve():
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    imports = [
        node
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("moilab")
    ]
    assert imports
    # its `from moilab... import ...` statements, run without the rest of it
    code = compile(ast.Module(body=imports, type_ignores=[]), "bench/workloads.py", "exec")
    exec(code, {})
