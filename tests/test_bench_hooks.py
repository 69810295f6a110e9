"""Every hublocate name the benchmark in ``perfbench/`` hooks or imports resolves.

The benchmark's own tests (``perfbench/selftest.py``) are not part of this
suite, so without this file a deleted re-export or tracer shim would fail
only there.
"""

from __future__ import annotations

import ast
import importlib
import json
from pathlib import Path

import pytest

from hublocate import build_linearized_model, emit_mps

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def perfbench(monkeypatch):
    """Import a module of ``perfbench/`` by name."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module


def test_every_tracer_hook_resolves(perfbench):
    tracer = perfbench("tracer")
    hooks = tracer.SPAN_HOOKS + tracer.COUNTER_HOOKS
    missing = [
        f"hublocate.{module}.{attr}"
        for module, attr, _ in hooks
        if not callable(getattr(importlib.import_module(f"hublocate.{module}"), attr, None))
    ]
    assert missing == []


def test_model_observers_read_a_built_model(perfbench, toy_instance):
    # The tracer's observers read the results of the calls it hooks, so a
    # model attribute they need must outlive any change to the model.
    observers = perfbench("tracer").OBSERVERS
    model = build_linearized_model(toy_instance)
    assert observers["milp.build"](model) == {
        "milp.variables": len(model.names),
        "milp.constraints": len(model.row_names),
    }
    text = emit_mps(model)
    assert observers["milp.emit_mps"](text) == {"milp.mps_bytes": len(text.encode("utf-8"))}


def test_harness_and_workloads_import(perfbench):
    # harness imports workloads, which imports synth; together they use
    # every hublocate name the benchmark imports.
    harness = perfbench("harness")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(harness.WORKLOADS) == {w["name"] for w in spec["workloads"]}


def _unused_imports(tree) -> dict:
    """Name -> import statement of each name a module imports and never
    uses (a name listed in ``__all__`` counts as used)."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node
    return {name: node for name, node in imported.items() if name not in used}


def test_unused_imports_are_benchmark_shims(perfbench):
    # A name a module imports but never calls is kept only as an attribute
    # for the benchmark: it sits on a "# noqa: F401" line, and the tracer
    # hooks it on that module or perfbench imports it from there.  The
    # names this test sees are the list of shims to delete once the
    # benchmark points at the defining modules.
    tracer = perfbench("tracer")
    wanted = {(module, attr) for module, attr, _ in tracer.SPAN_HOOKS + tracer.COUNTER_HOOKS}
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hublocate."):
                module = node.module.removeprefix("hublocate.")
                wanted.update((module, alias.name) for alias in node.names)
    stray = []
    for path in sorted((ROOT / "src" / "hublocate").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for name, node in _unused_imports(ast.parse(text)).items():
            if "# noqa: F401" not in lines[node.lineno - 1] or (path.stem, name) not in wanted:
                stray.append(f"{path.name}:{node.lineno} {name}")
    assert stray == []


def test_private_definitions_have_callers():
    # A private function, method or class that nothing in the package
    # names is dead code (a test or the benchmark may still reach it, but
    # the program does not), so a deletion that leaves a helper without
    # callers fails here.
    defined = {}
    referenced = set()
    for path in sorted((ROOT / "src" / "hublocate").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not name.endswith("__"):
                    defined.setdefault(name, f"{path.name}:{node.lineno} {name}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    assert sorted(where for name, where in defined.items() if name not in referenced) == []


# Public functions no program code calls, kept because tests read the
# model through them.
TEST_HELPERS = ("variable_counts", "constraint_counts", "max_residual")


def test_public_functions_have_callers():
    # A module-level public function that the package names nowhere but in
    # its own definition and in ``__init__.py``, that no ``perfbench/``
    # module imports and that is not a listed test helper is dead code.
    package = ROOT / "src" / "hublocate"
    defined = {}
    referenced = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = top.name
                if not own.startswith("_"):
                    defined.setdefault(own, f"{path.name}:{top.lineno} {own}")
            names = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            referenced |= names - {own}
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hublocate"):
                referenced.update(alias.name for alias in node.names)
    referenced.update(TEST_HELPERS)
    assert sorted(where for name, where in defined.items() if name not in referenced) == []
