"""Set-up, timed and traced runs, metrics and the report table of the benchmark.

Imported by run.py once ``src/`` is on the import path.
"""

from __future__ import annotations

import gc
import io
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from hublocate import cli
from hublocate.solution import evaluate_cost

import calibrate
from tracer import Tracer
from workloads import WORKLOADS, Checks, prepare_pool

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 9
COLD_REPEATS = 7
HARD_STOP_S = 150.0  # stop starting jobs this long after the run began


@dataclass
class Run:
    """What one benchmark run measured."""

    summary: dict  # the JSON object printed last
    checks: Checks
    facts: dict = field(default_factory=dict)  # everything the report table shows


def call_cli(argv):
    """Call hublocate.cli.main in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # a crash is a failed job, not a failed benchmark
            traceback.print_exc()
            rc = None
    return rc, out.getvalue(), err.getvalue()


def run_job(workload, item, call=call_cli):
    """Run one job's CLI calls, stopping at the first failure; returns (seconds, results)."""
    results = []
    start = perf_counter()
    for argv in workload.commands(item):
        outcome = call(argv)
        results.append((argv, outcome))
        if outcome[0] != 0:
            break
    return perf_counter() - start, results


def check_job(workload, item, results, checks, label, kept=()):
    checks.begin(f"{label} ({item.path.name}, {item.profile})")
    # A thread left running would slow the next jobs and the calibration
    # kernel, which a CLI user's next process would not feel.
    checks.expect("no_thread_left", threading.active_count() == 1,
                  f"{threading.active_count() - 1} threads still running")
    try:
        solution, facts = workload.check(item, results, checks, list(kept))
    except Exception as exc:  # e.g. an unreadable or infeasible output file
        checks.expect("no_exception", False, repr(exc))
        solution, facts = None, {}
    return (None if checks.job_failed else solution), facts


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def job_cost(item, solution):
    """(exact, approx) cost per m3 of demand on the repriced instance, and
    whether the solution pays the NVOCC overflow penalty at its real price
    (see README.md)."""
    inst = item.repriced()
    volume = inst.total_demand()
    exact = evaluate_cost(inst, solution, "exact").total / volume
    approx = evaluate_cost(inst, solution, "approx").total / volume
    pays = evaluate_cost(item.instance, solution, "exact").total >= item.instance.nvocc_penalty
    return exact, approx, pays


def p75(values) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[2] if len(values) > 1 else values[0]


def cost_metrics(costs) -> dict:
    """Geometric mean costs and the penalty-free share of the checked cost-set solutions."""
    if not costs:
        nan = float("nan")
        return {"cost_exact_geomean": nan, "cost_approx_geomean": nan, "penalty_free_share": nan}
    return {
        "cost_exact_geomean": geomean(c[0] for c in costs),
        "cost_approx_geomean": geomean(c[1] for c in costs),
        "penalty_free_share": sum(not c[2] for c in costs) / len(costs),
    }


def cold_start(path, checks) -> float:
    """Wall time of ``python -m hublocate.cli validate <path>`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "hublocate.cli", "validate", str(path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    elapsed = perf_counter() - start
    checks.expect("cold_start", proc.returncode == 0 and proc.stdout.strip() == "VALID",
                  proc.stderr[-300:])
    return elapsed


def set_up(workload, sizing, seed, workdir):
    """Prepare the set-up instances and run one unchecked warm-up job; returns (pool, items).

    The warm-up job runs on a smoke-size instance: it only has to take
    every code path once, and a full-size one would make set-up time vary
    from seed to seed with that one instance's difficulty.
    """
    pool, items = prepare_pool(workload, sizing, seed, workdir)
    _, warm = prepare_pool(workload, workload.smoke, seed, workdir / "warm-up")
    run_job(workload, warm[0])
    return pool, items


def settle() -> None:
    """Keep the benchmark's own long-lived objects out of the jobs' garbage collections."""
    gc.collect()
    gc.freeze()


def timed_run(workload, sizing, seed, seconds, workdir) -> Run:
    began = perf_counter()
    checks = Checks()
    setups = []

    def timed_set_up():
        start = perf_counter()
        made = set_up(workload, sizing, seed, workdir / f"set-up-{len(setups)}")
        setups.append(perf_counter() - start)
        return made

    pool, items = timed_set_up()
    settle()

    times, ref, costs = [], [], []
    pacer = calibrate.Pacer(call_cli)
    failed = 0
    loop_start = perf_counter()
    ready = deque(items)
    del items
    while len(times) < sizing.min_jobs or perf_counter() - loop_start < seconds:
        if perf_counter() - began > HARD_STOP_S:
            break
        # The other set-ups are spread over the run, so that their median
        # does not hang on how fast the machine ran in one short stretch.
        # Their instances are discarded and their time does not count as job time.
        if len(setups) < SETUP_REPEATS and (
            perf_counter() - loop_start >= seconds * len(setups) / SETUP_REPEATS
        ):
            timed_set_up()
            loop_start += setups[-1]
            shutil.rmtree(workdir / f"set-up-{len(setups) - 1}")
            continue
        i = len(times)
        # Set-up instances first, then fresh ones made between jobs: none repeats.
        item = ready.popleft() if ready else pool.make()
        pacer.reset()
        _, results = run_job(workload, item, pacer)
        solution, _ = check_job(workload, item, results, checks, f"job {i}")
        times.append(pacer.wall_s)
        ref.append(pacer.ref_s)
        failed += solution is None
        if i < sizing.cost_jobs and solution is not None:
            costs.append(job_cost(item, solution))
        item.remove_files()
    while len(setups) < SETUP_REPEATS:
        timed_set_up()
    complete = checks.expect(
        "cost_jobs_done", len(times) >= sizing.cost_jobs,
        f"{len(times)} of {sizing.cost_jobs} jobs before the hard stop",
    )

    cost = cost_metrics(costs)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "job_ref_s_p50": (statistics.median(ref), "ref-s"),
        "job_ref_s_p75": (p75(ref), "ref-s"),
        "jobs_per_ref_s": ((len(times) - failed) / sum(ref), "1/ref-s"),
        "cost_exact_geomean": (cost["cost_exact_geomean"], "cost/m3"),
        "cost_approx_geomean": (cost["cost_approx_geomean"], "cost/m3"),
        "penalty_free_share": (cost["penalty_free_share"], "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    facts = {
        "jobs": len(times),
        "above_p75": sum(t > metrics["job_ref_s_p75"][0] for t in ref),
        "wall": {
            "job_s_p50": statistics.median(times),
            "job_s_p75": p75(times),
            "jobs_per_s": (len(times) - failed) / sum(times),
        },
        "kernel_s": (min(pacer.samples), statistics.median(pacer.samples), max(pacer.samples)),
        "cost_jobs": len(costs),
        "penalized": sum(c[2] for c in costs),
        "fail_ratio": failed / len(times),
        "setups": setups,
    }
    summary = {
        "correct": failed == 0 and not checks.failed and complete,
        "attempted": len(times),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return Run(summary, checks, facts)


def traced_call(tracer):
    def call(argv):
        span = tracer.open_span("cli.main")
        try:
            return call_cli(argv)
        finally:
            tracer.close_span(span)

    return call


def traced_run(workload, sizing, seed, workdir, trace_path) -> Run:
    checks = Checks()
    pool, items = set_up(workload, sizing, seed, workdir)
    generate_s = pool.generate_s  # of the set-up instances only
    cold = [cold_start(items[0].path, checks) for _ in range(COLD_REPEATS)]
    settle()
    tracer = Tracer(keep=workload.keep)
    plain_s = traced_s = 0.0
    facts_by_job = []
    failed = 0
    for i in range(sizing.trace_jobs):
        item = items[i] if i < len(items) else pool.make()
        elapsed, _ = run_job(workload, item)
        plain_s += elapsed
        with tracer:
            tracer.job = i
            kept_before = len(tracer.kept)
            elapsed, results = run_job(workload, item, traced_call(tracer))
            tracer.job = None
        traced_s += elapsed
        solution, facts = check_job(
            workload, item, results, checks, f"traced job {i}", tracer.kept[kept_before:]
        )
        failed += solution is None
        facts_by_job.append(facts)

    tracer.dump(trace_path)
    metrics = layer_metrics(
        tracer, sizing.trace_jobs, facts_by_job, generate_s, statistics.median(cold),
        plain_s, traced_s,
    )
    summary = {
        "correct": failed == 0 and not checks.failed,
        "attempted": sizing.trace_jobs,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    facts = {
        "jobs": sizing.trace_jobs,
        "fail_ratio": failed / sizing.trace_jobs,
        "trace_path": trace_path,
        "span_totals": tracer.span_totals(),
        "missing_hooks": tracer.missing,
        "counters": tracer.counters(),
        "cold": cold,
    }
    return Run(summary, checks, facts)


def layer_metrics(tracer, jobs, facts_by_job, generate_s, cold_start_s, plain_s, traced_s) -> dict:
    """Per-layer metrics, each per job unless its unit says otherwise."""
    spans = tracer.span_totals()
    counters = tracer.counters()

    def calls(name):
        return (spans.get(name, (0, 0.0, 0.0))[0] or counters.get(name, (0, 0.0))[0]) / jobs

    def total_s(name):
        return spans.get(name, (0, 0.0, 0.0))[1] / jobs

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2] / jobs

    def per_call(size, span):
        n = spans.get(span, (0, 0.0, 0.0))[0]
        return tracer.sizes.get(size, 0) / n if n else 0.0

    configurations = sum(f.get("configurations", 0) for f in facts_by_job)
    enumerate_total = spans.get("exact_oracle.enumerate", (0, 0.0, 0.0))[1]
    gains = [f["ls_gain_pct"] for f in facts_by_job if "ls_gain_pct" in f]
    cost_model_s = sum(t for name, (_, t) in counters.items() if name.startswith("cost_model."))
    return {
        "cli.self_s": (self_s("cli.main"), "s"),
        "cli.cold_start_s": (cold_start_s, "s"),
        "network_model.load_calls": (calls("network_model.load"), "count"),
        "network_model.load_s": (total_s("network_model.load"), "s"),
        "network_model.validate_calls": (calls("network_model.validate"), "count"),
        "network_model.validate_s": (total_s("network_model.validate"), "s"),
        "cost_model.land_exact_calls": (calls("cost_model.land_exact"), "count"),
        "cost_model.sea_calls": (calls("cost_model.sea"), "count"),
        "cost_model.breakpoints_calls": (calls("cost_model.breakpoints"), "count"),
        "cost_model.land_approx_calls": (calls("cost_model.land_approx"), "count"),
        "cost_model.time_s": (cost_model_s / jobs, "s"),
        "solution.evaluate_calls": (calls("solution.evaluate"), "count"),
        "solution.evaluate_s": (total_s("solution.evaluate"), "s"),
        "solution.feasibility_calls": (calls("solution.feasibility"), "count"),
        "solution.feasibility_s": (total_s("solution.feasibility"), "s"),
        "solution.io_s": (total_s("solution.io"), "s"),
        "splits.candidate_calls": (calls("splits.candidates"), "count"),
        "splits.subset_sum_calls": (calls("splits.subset_sums"), "count"),
        "heuristics.two_stage_s": (total_s("heuristics.two_stage"), "s"),
        "heuristics.two_stage_self_s": (self_s("heuristics.two_stage"), "s"),
        "heuristics.local_search_s": (total_s("heuristics.local_search"), "s"),
        "heuristics.local_search_self_s": (self_s("heuristics.local_search"), "s"),
        "heuristics.ls_gain_pct": (statistics.fmean(gains) if gains else 0.0, "%"),
        "exact_oracle.enumerate_s": (total_s("exact_oracle.enumerate"), "s"),
        "exact_oracle.enumerate_self_s": (self_s("exact_oracle.enumerate"), "s"),
        "exact_oracle.configurations": (configurations / jobs, "count"),
        "exact_oracle.configs_per_s": (
            configurations / enumerate_total if enumerate_total else 0.0, "1/s"
        ),
        "milp.build_calls": (calls("milp.build"), "count"),
        "milp.build_s": (total_s("milp.build"), "s"),
        "milp.emit_lp_s": (total_s("milp.emit_lp"), "s"),
        "milp.emit_mps_calls": (calls("milp.emit_mps"), "count"),
        "milp.emit_mps_s": (total_s("milp.emit_mps"), "s"),
        "milp.decode_s": (total_s("milp.decode"), "s"),
        "milp.variables": (per_call("milp.variables", "milp.build"), "count"),
        "milp.constraints": (per_call("milp.constraints", "milp.build"), "count"),
        "milp.mps_bytes": (per_call("milp.mps_bytes", "milp.emit_mps"), "bytes"),
        "gen.generate_s": (generate_s, "s"),
        "trace.overhead_pct": (100.0 * (traced_s - plain_s) / plain_s, "%"),
    }


def bench(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> Run:
    """Run one workload; the smoke sizes are for the benchmark's own tests."""
    workload = WORKLOADS[name]
    sizing = workload.smoke if smoke else workload.full
    workdir = OUT / "work" / f"{name}-{seed}-{os.getpid()}"
    try:
        if trace:
            trace_path = OUT / f"trace-{name}-seed{seed}{'-smoke' if smoke else ''}.json"
            return traced_run(workload, sizing, seed, workdir, trace_path)
        return timed_run(workload, sizing, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(name: str, seed: int, trace: bool, run: Run, out=sys.stdout) -> None:
    """Human-readable table of every metric; the JSON line follows it."""
    s, f = run.summary, run.facts
    mode = "traced, per job" if trace else "untraced"
    print(f"== {name} seed {seed} ({mode}): {s['attempted']} jobs, {s['failed']} failed", file=out)
    rows = [(k, m["value"], m["unit"]) for k, m in s["metrics"].items()]
    if not trace:
        rows += [(k, v, "1/s" if k.endswith("per_s") else "s") for k, v in f["wall"].items()]
    rows.append(("fail_ratio", f["fail_ratio"], "ratio"))
    notes = {"fail_ratio": f"{s['failed']}/{s['attempted']} jobs"}
    if not trace:
        lo, mid, hi = f["kernel_s"]
        notes.update({
            "job_ref_s_p50": f"n={f['jobs']}, each on its own instance",
            "job_ref_s_p75": f"n={f['jobs']}, {f['above_p75']} above",
            "jobs_per_ref_s": f"kernel {mid * 1e3:.3g} ms ({lo * 1e3:.3g}-{hi * 1e3:.3g})",
            "job_s_p50": "wall time, not scaled",
            "job_s_p75": "wall time, not scaled",
            "jobs_per_s": "wall time, not scaled",
            "setup_s": f"median of {len(f['setups'])} set-ups, "
                       f"{min(f['setups']):.3g}-{max(f['setups']):.3g} s",
            "cost_exact_geomean": f"first {f['cost_jobs']} jobs",
            "cost_approx_geomean": f"first {f['cost_jobs']} jobs",
            "penalty_free_share": f"{f['penalized']} of {f['cost_jobs']} pay the NVOCC penalty",
        })
    else:
        notes["cli.cold_start_s"] = f"median of {len(f['cold'])} fresh interpreters"
    for key, value, unit in rows:
        print(f"  {key:<32} {value:>16.6g} {unit:<7} {notes.get(key, '')}".rstrip(), file=out)
    if trace:
        print("  self time per layer, s per job (span layers; counted primitives run inside them):",
              file=out)
        by_layer: dict = {}
        for span_name, (_, _, own) in f["span_totals"].items():
            layer = span_name.split(".", 1)[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + own / f["jobs"]
        for layer, own in sorted(by_layer.items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<30} {own:>16.6g}", file=out)
        for name, (calls, seconds) in sorted(f["counters"].items()):
            print(f"    {name:<30} {seconds / f['jobs']:>16.6g}  ({calls / f['jobs']:.6g} calls)",
                  file=out)
        print(f"  spans and counters written to {f['trace_path']}", file=out)
        if f["missing_hooks"]:
            print(f"  hooks not found: {', '.join(f['missing_hooks'])}", file=out)
    for note in run.checks.notes:
        print(f"  ! {note}", file=out)
    ran = ", ".join(f"{k} {v}" for k, v in sorted(run.checks.ran.items()))
    print(f"  checks run: {ran}", file=out)
