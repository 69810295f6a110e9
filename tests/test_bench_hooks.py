"""Every hublocate name the benchmark in ``perfbench/`` hooks or imports resolves.

The benchmark's own tests (``perfbench/selftest.py``) are not part of this
suite, so without this file a deleted re-export or tracer shim would fail
only there.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

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


def test_harness_and_workloads_import(perfbench):
    # harness imports workloads, which imports synth; together they use
    # every hublocate name the benchmark imports.
    harness = perfbench("harness")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(harness.WORKLOADS) == {w["name"] for w in spec["workloads"]}
