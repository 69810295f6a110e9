"""The three workloads: their instances, the CLI calls of one job, and output checks.

Every workload draws its instances from ``hublocate.gen.generate`` with
seeds derived from the benchmark seed, cycling the three generator
profiles so that each run holds them in equal shares.  A job is one or
more calls of ``hublocate.cli.main`` with default flags.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from hublocate.cost_model import COST_RTOL
from hublocate.gen import PROFILES, generate
from hublocate.heuristics import solve_no_hubs
from hublocate.network_model import save_instance
from hublocate.solution import check_feasibility, evaluate_cost, load_solution

import synth


@dataclass(frozen=True)
class Sizing:
    """Instance shape and job counts of one workload."""

    branches: int
    ports: int
    dests: int
    density: float
    pool: int  # instances prepared in set-up; later jobs get fresh ones made between jobs
    cost_jobs: int  # the first jobs, whose output costs are reported
    min_jobs: int  # jobs every untraced run completes, whatever --seconds says
    trace_jobs: int  # jobs of a traced run


@dataclass
class Item:
    """One prepared instance and the files its job reads and writes."""

    profile: str
    instance: object
    path: Path
    out: Path
    extra: dict = field(default_factory=dict)

    def repriced(self):
        """The instance with the NVOCC overflow penalty set to a real sea price.

        The penalty becomes the dearest price of one container's volume on
        any relation of the instance, at its FCL or its NVOCC rate.  The
        end-to-end cost metrics price solutions on this copy: a single 1e8
        penalty container moves a geometric mean over 90 jobs by 20% and
        more, which would make the cost metrics differ from seed to seed by
        more than any useful bound.
        """
        inst = self.extra.get("repriced")
        if inst is None:
            u_cont = self.instance.sea_container_volume
            dearest = max(
                max(r.fcl_per_container or 0.0, (r.nvocc_per_m3 or 0.0) * u_cont)
                for r in self.instance.sea_rates.values()
            )
            inst = self.extra["repriced"] = dataclasses.replace(
                self.instance, nvocc_penalty=dearest
            )
        return inst

    def remove_files(self) -> None:
        """Delete the job's files once it has been checked."""
        paths = [self.path, self.out, *(v for v in self.extra.values() if isinstance(v, Path))]
        for path in paths:
            path.unlink(missing_ok=True)


class Checks:
    """Named output checks; a job fails when any check of it fails."""

    def __init__(self):
        self.ran: dict = {}
        self.failed: dict = {}
        self.notes: list = []
        self.job_failed = False
        self.context = ""

    def begin(self, context: str) -> None:
        self.context = context
        self.job_failed = False

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.ran[name] = self.ran.get(name, 0) + 1
        if not ok:
            self.failed[name] = self.failed.get(name, 0) + 1
            self.job_failed = True
            if len(self.notes) < 20:
                self.notes.append(f"{self.context}: {name} failed {detail}".rstrip())
        return ok


def _same(a: float, b: float, rtol: float = 1e-9) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _exits_ok(results, checks: Checks) -> bool:
    ok = True
    for argv, (rc, _, err) in results:
        ok = checks.expect("exit_code", rc == 0, f"{argv[0]} exited {rc}: {err[-300:]}") and ok
    return ok and len(results) > 0


class Workload:
    name = ""
    full: Sizing
    smoke: Sizing
    keep: tuple = ()  # span names whose arguments the tracer keeps
    checks: tuple = ()  # the checks every run of this workload makes
    traced_checks: tuple = ()  # further checks of a traced run

    def prepare(self, item: Item, rng: random.Random, workdir: Path) -> None:
        """Extra set-up files for one instance."""

    def commands(self, item: Item) -> list:
        raise NotImplementedError

    def check(self, item: Item, results: list, checks: Checks, kept: list) -> tuple:
        """Check one job's outputs; returns (output solution, facts)."""
        raise NotImplementedError


class SolveWorkload(Workload):
    """``solve --method <method> <inst> -o <sol> --json``."""

    method = ""

    def commands(self, item):
        return [["solve", "--method", self.method, str(item.path), "-o", str(item.out), "--json"]]

    def check(self, item, results, checks, kept):
        if not _exits_ok(results, checks):
            return None, {}
        _, (_, out, _) = results[0]
        try:
            report = json.loads(out)
        except ValueError as exc:
            checks.expect("json", False, str(exc))
            return None, {}
        checks.expect("json", True)
        inst = item.instance
        solution = load_solution(item.out)
        checks.expect("feasible", not check_feasibility(inst, solution))
        exact = evaluate_cost(inst, solution, "exact").total
        approx = evaluate_cost(inst, solution, "approx").total
        reported_exact = report["cost_exact"]["total"]
        reported_approx = report["cost_approx"]["total"]
        checks.expect("cli_cost_exact", reported_exact == exact, f"{reported_exact} != {exact}")
        checks.expect(
            "cli_cost_approx", reported_approx == approx, f"{reported_approx} != {approx}"
        )
        return solution, self.more_checks(item, report, approx, checks, kept)

    def more_checks(self, item, report, approx, checks, kept) -> dict:
        return {}


class HeuristicWorkload(SolveWorkload):
    name = "heuristic"
    method = "local-search"
    full = Sizing(8, 3, 4, 0.6, pool=240, cost_jobs=120, min_jobs=120, trace_jobs=30)
    smoke = Sizing(5, 2, 2, 0.6, pool=3, cost_jobs=3, min_jobs=4, trace_jobs=3)
    keep = ("heuristics.local_search",)
    checks = ("exit_code", "json", "feasible", "cli_cost_exact", "cli_cost_approx")
    traced_checks = ("ls_not_worse",)

    def more_checks(self, item, report, approx, checks, kept):
        facts = {}
        for _, _, args, kwargs, result in kept:
            inst = args[0] if args else kwargs["instance"]
            start = args[1] if len(args) > 1 else kwargs["start"]
            start_approx = evaluate_cost(inst, start, "approx").total
            result_approx = evaluate_cost(inst, result, "approx").total
            checks.expect(
                "ls_not_worse", result_approx <= start_approx or _same(result_approx, start_approx),
                f"{result_approx} > start {start_approx}",
            )
            # Priced like the cost metrics, so that the gain explains them.
            start_exact = evaluate_cost(item.repriced(), start, "exact").total
            result_exact = evaluate_cost(item.repriced(), result, "exact").total
            facts["ls_gain_pct"] = 100.0 * (start_exact - result_exact) / start_exact
        return facts


class OracleWorkload(SolveWorkload):
    name = "oracle"
    method = "oracle"
    full = Sizing(2, 3, 2, 1.0, pool=300, cost_jobs=300, min_jobs=300, trace_jobs=30)
    smoke = Sizing(2, 2, 2, 1.0, pool=3, cost_jobs=3, min_jobs=4, trace_jobs=3)
    checks = ("exit_code", "json", "feasible", "cli_cost_exact", "cli_cost_approx",
              "oracle_le_no_hub")

    def more_checks(self, item, report, approx, checks, kept):
        no_hub = item.extra.get("no_hub_approx")
        if no_hub is None:
            baseline = solve_no_hubs(item.instance)
            no_hub = item.extra["no_hub_approx"] = evaluate_cost(
                item.instance, baseline, "approx"
            ).total
        checks.expect(
            "oracle_le_no_hub", approx <= no_hub or _same(approx, no_hub),
            f"oracle {approx} > no-hub {no_hub}",
        )
        return {"configurations": report["evaluated_configurations"]}


class ModelWorkload(Workload):
    name = "model"
    full = Sizing(16, 3, 6, 0.6, pool=12, cost_jobs=60, min_jobs=60, trace_jobs=12)
    smoke = Sizing(5, 2, 3, 0.6, pool=3, cost_jobs=3, min_jobs=4, trace_jobs=3)
    checks = ("exit_code", "validate_valid", "json", "feasible", "cli_cost_approx",
              "decode_objective_printed", "decode_round_trip", "decode_objective")

    def prepare(self, item, rng, workdir):
        stem = item.path.stem
        solution = synth.synthetic_solution(item.instance, rng)
        values_path = workdir / f"{stem}.values"
        objective = synth.write_values(item.instance, solution, values_path)
        item.extra.update(
            synthetic=solution, objective=objective, values_path=values_path,
            lp=workdir / f"{stem}.lp", mps=workdir / f"{stem}.mps",
        )

    def commands(self, item):
        inst, x = str(item.path), item.extra
        return [
            ["validate", inst],
            ["build-milp", inst, "-o", str(x["lp"])],
            ["build-milp", inst, "-o", str(x["mps"])],
            ["decode", inst, str(x["mps"]), str(x["values_path"]), "-o", str(item.out)],
            ["evaluate", "--mode", "approx", "--format", "json", inst, str(item.out)],
        ]

    def check(self, item, results, checks, kept):
        if not _exits_ok(results, checks):
            return None, {}
        outputs = [out for _, (_, out, _) in results]
        checks.expect("validate_valid", outputs[0].strip() == "VALID", outputs[0][-200:])
        try:
            report = json.loads(outputs[4])
        except ValueError as exc:
            checks.expect("json", False, str(exc))
            return None, {}
        checks.expect("json", True)
        inst = item.instance
        decoded = load_solution(item.out)
        checks.expect("feasible", not check_feasibility(inst, decoded))
        approx = evaluate_cost(inst, decoded, "approx").total
        checks.expect(
            "cli_cost_approx", report["total"] == approx, f"{report['total']} != {approx}"
        )
        printed = f"decoded objective (approximated): {approx:.6f}"
        checks.expect("decode_objective_printed", printed in outputs[3], outputs[3][-200:])
        checks.expect("decode_round_trip", decoded.approx_equal(item.extra["synthetic"]))
        objective = item.extra["objective"]
        checks.expect(
            "decode_objective", abs(approx - objective) <= COST_RTOL * max(1.0, abs(objective)),
            f"decoded cost {approx} vs model objective {objective}",
        )
        return decoded, {}


WORKLOADS = {w.name: w for w in (HeuristicWorkload(), OracleWorkload(), ModelWorkload())}


class Pool:
    """The instances of one run, made in order from the benchmark seed.

    Instance ``i`` depends only on the seed and ``i``, so the same seed
    gives byte-identical files however many are made.  No instance is
    used twice: a job in a fresh CLI process cannot reuse anything an
    earlier job left behind, and neither may a job here.
    """

    def __init__(self, workload: Workload, sizing: Sizing, seed: int, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        self.workload, self.sizing, self.workdir = workload, sizing, workdir
        self.rng = random.Random(f"perfbench/{workload.name}/{seed}")
        self.made = 0
        self.generate_s = 0.0  # time spent in hublocate.gen.generate

    def make(self) -> Item:
        """Generate the next instance, write it and prepare its job's files."""
        i, sizing = self.made, self.sizing
        self.made += 1
        profile = PROFILES[i % len(PROFILES)]
        gen_seed = self.rng.randrange(2**31)
        start = perf_counter()
        instance = generate(
            gen_seed, sizing.branches, sizing.ports, sizing.dests, sizing.density, profile
        )
        self.generate_s += perf_counter() - start
        path = self.workdir / f"inst{i:04d}.json"
        save_instance(instance, path)
        item = Item(profile, instance, path, self.workdir / f"inst{i:04d}.sol.json")
        self.workload.prepare(item, random.Random(self.rng.randrange(2**31)), self.workdir)
        return item

    def take(self, n: int) -> list:
        return [self.make() for _ in range(n)]


def prepare_pool(workload: Workload, sizing: Sizing, seed: int, workdir: Path):
    """A run's pool and the ``sizing.pool`` instances its set-up prepares."""
    pool = Pool(workload, sizing, seed, workdir)
    return pool, pool.take(sizing.pool)
