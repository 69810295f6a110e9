"""Tests of the benchmark itself, on smoke-size instances.

    PYTHONPATH=src python -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's own test run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as entry  # noqa: E402

entry.use_source()

import calibrate  # noqa: E402
import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = tuple(workloads.WORKLOADS)
SEED = 3

_runs: dict = {}


def smoke(name: str, trace: bool, seed: int = SEED):
    """One smoke run per (workload, trace, seed), shared by the tests."""
    key = (name, trace, seed)
    if key not in _runs:
        _runs[key] = harness.bench(name, seed, 0.0, trace, smoke=True)
    return _runs[key]


def test_workloads_match_benchmark_json():
    assert tuple(w["name"] for w in SPEC["workloads"]) == NAMES


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_metric_names_and_units_match_benchmark_json(name, trace):
    declared = SPEC["per_layer" if trace else "end_to_end"]
    metrics = smoke(name, trace).summary["metrics"]
    assert list(metrics) == [m["name"] for m in declared]
    assert [m["unit"] for m in metrics.values()] == [m["unit"] for m in declared]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_makes_every_check(name, trace):
    workload = workloads.WORKLOADS[name]
    run = smoke(name, trace)
    expected = {*workload.checks, "no_thread_left"}
    expected |= {"cold_start", *workload.traced_checks} if trace else {"cost_jobs_done"}
    assert expected <= set(run.checks.ran), expected - set(run.checks.ran)
    assert run.checks.notes == []
    assert run.summary["correct"] is True
    assert run.summary["failed"] == 0
    assert run.summary["attempted"] >= 1


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_files_and_costs(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    for d in ("a", "b"):
        workloads.prepare_pool(workload, workload.smoke, SEED, tmp_path / d)
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert files_a == files_b and files_a
    for f in files_a:
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes(), f

    again = harness.bench(name, SEED, 0.0, False, smoke=True).summary["metrics"]
    first = smoke(name, False).summary["metrics"]
    for key in ("cost_exact_geomean", "cost_approx_geomean"):
        assert again[key] == first[key]


@pytest.mark.parametrize("name", NAMES)
def test_different_seed_gives_different_instances(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    _, a = workloads.prepare_pool(workload, workload.smoke, SEED, tmp_path / "a")
    _, b = workloads.prepare_pool(workload, workload.smoke, SEED + 1, tmp_path / "b")
    assert [i.path.read_bytes() for i in a] != [i.path.read_bytes() for i in b]


@pytest.mark.parametrize("name", NAMES)
def test_no_instance_repeats_past_the_set_up_pool(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    pool, items = workloads.prepare_pool(workload, workload.smoke, SEED, tmp_path)
    items += pool.take(len(items))
    texts = [i.path.read_bytes() for i in items]
    assert len(set(texts)) == len(texts)
    assert workload.smoke.min_jobs > workload.smoke.pool  # smoke runs make fresh instances too


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_repeat_exactly(name):
    first = smoke(name, True).summary["metrics"]
    second = harness.bench(name, SEED, 0.0, True, smoke=True).summary["metrics"]
    counts = [k for k, m in first.items() if m["unit"] in ("count", "bytes")]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_traced_run_restores_every_hooked_function():
    import importlib

    hooks = tracer.SPAN_HOOKS + tracer.COUNTER_HOOKS
    before = {
        (m, a): getattr(importlib.import_module(f"hublocate.{m}"), a) for m, a, _ in hooks
    }
    smoke("oracle", True, seed=SEED + 7)
    after = {
        (m, a): getattr(importlib.import_module(f"hublocate.{m}"), a) for m, a, _ in hooks
    }
    assert all(before[k] is after[k] for k in before)


def test_pacer_scales_each_call_by_the_kernel_around_it(monkeypatch):
    monkeypatch.setattr(calibrate, "sample", iter([0.002, 0.006, 0.004]).__next__)
    monkeypatch.setattr(calibrate, "perf_counter", iter([0.0, 0.1, 1.0, 1.3]).__next__)
    pacer = calibrate.Pacer(lambda argv: (0, "", ""))
    assert pacer(["a"]) == (0, "", "") and pacer(["b"]) == (0, "", "")
    # 0.1 s between kernels of 0.002 and 0.006 s, then 0.3 s between 0.006 and 0.004 s
    assert pacer.wall_s == pytest.approx(0.4)
    assert pacer.ref_s == pytest.approx(calibrate.REFERENCE_S * (0.1 / 0.004 + 0.3 / 0.005))
    assert pacer.samples == [0.002, 0.006, 0.004]
    pacer.reset()
    assert pacer.wall_s == pacer.ref_s == 0.0


def test_self_time_subtracts_the_union_of_children():
    t = tracer.Tracer()
    t.spans = [
        tracer.Span(0, "cli.main", 0.0, 10.0, None, 0),
        tracer.Span(1, "solution.evaluate", 1.0, 4.0, 0, 0),
        tracer.Span(2, "solution.evaluate", 3.0, 5.0, 0, 0),  # overlaps span 1
        tracer.Span(3, "solution.feasibility", 1.5, 2.0, 1, 0),
    ]
    totals = t.span_totals()
    assert totals["cli.main"] == (1, 10.0, 6.0)
    assert totals["solution.evaluate"] == (2, 5.0, 4.5)
    assert totals["solution.feasibility"] == (1, 0.5, 0.5)
