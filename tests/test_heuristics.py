"""Two-stage heuristic, no-hub baseline, and local search behavior."""

from __future__ import annotations

import dataclasses
import itertools
import time
from types import SimpleNamespace

import pytest

from hublocate import (
    Instance,
    LandCostTable,
    NodeSets,
    SeaRate,
    check_feasibility,
    enumerate_optimal,
    evaluate_cost,
    errors,
    generate,
    heuristics,
    local_search_improve,
    solve_no_hubs,
    solve_single_destination,
    solve_two_stage,
)
from hublocate.exact_oracle import OracleLimits
from hublocate.errors import InfeasibleSolutionError, OracleLimitError, TimeBudgetError
from hublocate.heuristics import MAX_ROUTE_SWEEPS, SearchStats, _DestinationContext
from hublocate.solution import Solution


def consolidation_cluster_instance() -> Instance:
    """One destination, two ports; branches B1/B2 cluster around H1, whose
    own 20 m3 makes it a strong consolidation point."""
    w = (1.0, 1.2, 1.4, 1.55, 1.7, 1.85)
    branches = ("B1", "B2", "H1")
    distance = {}
    for b in branches:
        distance[(b, b)] = 0.0
        distance[(b, "S1")] = 500.0
        distance[(b, "S2")] = 560.0
    for a, b, d in (("B1", "H1", 10.0), ("B2", "H1", 12.0), ("B1", "B2", 18.0)):
        distance[(a, b)] = distance[(b, a)] = d
    return Instance(
        nodes=NodeSets(branches, ("S1", "S2"), ("T1",)),
        demand={("B1", "T1"): 4.0, ("B2", "T1"): 4.0, ("H1", "T1"): 20.0},
        land_costs=LandCostTable(
            distance_breaks=(50.0, 600.0),
            volume_breaks=(4.0, 8.0, 16.0, 28.0, 45.0, 80.0),
            cost=(
                tuple(round(30.0 * x, 2) for x in w),
                tuple(round(300.0 * x, 2) for x in w),
            ),
        ),
        sea_rates={
            ("S1", "T1"): SeaRate(fcl_per_container=1000.0, nvocc_per_m3=40.0),
            ("S2", "T1"): SeaRate(fcl_per_container=1000.0, nvocc_per_m3=40.0),
        },
        setup_cost={b: 40.0 for b in branches},
        hub_consol_cost={b: 0.5 for b in branches},
        port_consol_cost={"S1": 1.0, "S2": 1.0},
        distance=distance,
        land_container_volume=80.0,
        name="cluster",
    )


def brute_force_single_destination(instance: Instance, t: str, hub_budget: int):
    """Independent enumeration of all (port map, hub set, whole-shipment
    routing) configurations, costed through the library evaluator."""
    shippers = sorted(b for (b, tt), v in instance.demand.items() if tt == t and v > 0.0)
    ports = instance.usable_ports(t)
    restricted = dataclasses.replace(
        instance, demand={(b, tt): v for (b, tt), v in instance.demand.items() if tt == t}
    )
    best = None
    hub_sets = []
    for k in range(hub_budget + 1):
        hub_sets.extend(itertools.combinations(instance.nodes.branches, k))
    for port_map in itertools.product(ports, repeat=len(shippers)):
        ports_of = dict(zip(shippers, port_map))
        for hubs in hub_sets:
            route_options = [
                ((None,) if b in hubs else (None,) + tuple(h for h in hubs if h != b))
                for b in shippers
            ]
            for routes in itertools.product(*route_options):
                used = frozenset(h for h in routes if h is not None)
                if used != frozenset(hubs):
                    continue
                sol = Solution(
                    port_choice={(b, t): ports_of[b] for b in shippers},
                    hubs=used,
                    direct_fraction={
                        (b, ports_of[b]): 0.0 for b, h in zip(shippers, routes) if h
                    },
                    hub_choice={
                        (b, ports_of[b]): h for b, h in zip(shippers, routes) if h
                    },
                )
                cost = evaluate_cost(restricted, sol, "exact").total
                if best is None or cost < best[0]:
                    best = (cost, used)
    return best


def twin_hub_instance() -> Instance:
    """The cluster instance with a mirror image H2 of hub H1, so routing
    via H1 or H2 costs exactly the same."""
    base = consolidation_cluster_instance()
    distance = {}
    for (a, r), d in base.distance.items():
        distance[(a, r)] = d
        if "H1" in (a, r):
            twin = tuple("H2" if x == "H1" else x for x in (a, r))
            distance[twin] = d
    distance[("H1", "H2")] = distance[("H2", "H1")] = 5.0
    distance[("H2", "H2")] = 0.0
    return dataclasses.replace(
        base,
        nodes=NodeSets(("B1", "B2", "H1", "H2"), ("S1", "S2"), ("T1",)),
        demand={**base.demand, ("H2", "T1"): 20.0},
        setup_cost={**base.setup_cost, "H2": 40.0},
        hub_consol_cost={**base.hub_consol_cost, "H2": 0.5},
        distance=distance,
    )


def full_cost_routes(ctx, ports, hub_set) -> dict:
    """Best-response routing with every option costed in full."""
    routes = dict.fromkeys(ctx.branches)
    for _ in range(MAX_ROUTE_SWEEPS):
        changed = False
        for b in ctx.branches:
            if b in hub_set:
                continue
            best = None
            for h in [None] + [h for h in hub_set if h != b]:
                c = ctx.cost(ports, {**routes, b: h})
                if best is None or c < best[0]:
                    best = (c, h)
            if best[1] != routes[b]:
                routes[b] = best[1]
                changed = True
        if not changed:
            break
    return routes


class TestRouteDeltas:
    @pytest.mark.parametrize("inst", [
        twin_hub_instance(),
        generate(2, 8, 3, 2, 0.8, "consolidation_favorable"),
        generate(5, 8, 3, 2, 0.8, "nvocc_only_mix"),
    ], ids=["twin-hubs", "consolidation", "nvocc-mix"])
    def test_delta_routing_matches_full_costs(self, inst):
        stats = SearchStats()
        for t in inst.nodes.destination_ports:
            ctx = _DestinationContext(inst, t, stats)
            if not ctx.branches:
                continue
            ports = ctx.initial_ports()
            for hub_set in itertools.combinations(inst.nodes.branches, 2):
                assert ctx.route_shipments(ports, hub_set) == full_cost_routes(
                    ctx, ports, hub_set
                )

    def test_exact_ties_fall_back_to_full_costs(self):
        inst = twin_hub_instance()
        stats = SearchStats()
        ctx = _DestinationContext(inst, "T1", stats)
        routes = ctx.route_shipments({b: "S1" for b in ctx.branches}, ("H1", "H2"))
        assert stats.near_tie_fallbacks > 0
        assert routes == {"B1": "H1", "B2": "H1", "H1": None, "H2": None}


class TestSingleDestination:
    def test_zero_budget_is_cheapest_direct_port(self):
        inst = consolidation_cluster_instance()
        plan = solve_single_destination(inst, "T1", hub_budget=0)
        assert plan.hubs == ()
        assert plan.routes == {b: None for b in ("B1", "B2", "H1")}
        assert set(plan.ports.values()) == {"S1"}  # nearer port wins

    def test_single_branch_never_opens_a_hub(self, toy_instance):
        inst = dataclasses.replace(toy_instance, demand={("B1", "T1"): 6.0})
        plan = solve_single_destination(inst, "T1", hub_budget=2)
        assert plan.hubs == ()
        assert plan.ports == {"B1": "S1"}

    def test_cluster_instance_opens_the_central_hub(self):
        inst = consolidation_cluster_instance()
        plan = solve_single_destination(inst, "T1", hub_budget=2)
        assert plan.hubs == ("H1",)
        assert plan.routes["B1"] == "H1" and plan.routes["B2"] == "H1"
        best_cost, best_hubs = brute_force_single_destination(inst, "T1", 2)
        assert best_hubs == frozenset({"H1"})
        assert plan.cost == pytest.approx(best_cost, rel=1e-9)

    def test_iterations_bounded_and_counted(self):
        inst = consolidation_cluster_instance()
        plan = solve_single_destination(inst, "T1", hub_budget=2)
        assert 1 <= plan.iterations <= 50


class TestTwoStage:
    def test_single_destination_merge_is_plain(self):
        inst = consolidation_cluster_instance()
        result = solve_two_stage(inst, hub_budget=2)
        assert result.violations == []
        assert result.merged.hubs == frozenset({"H1"})
        assert check_feasibility(inst, result.merged) == []
        plan = result.per_destination["T1"]
        assert result.cost.total == pytest.approx(plan.cost, rel=1e-9)

    def test_merge_conflict_reported_as_c8(self, merge_conflict_instance):
        result = solve_two_stage(merge_conflict_instance, hub_budget=2)
        assert [v.constraint for v in result.violations] == ["C8"]
        assert result.violations[0].subject == ("B1", "S1")
        # Per-destination stages really chose different hubs for (B1, S1).
        assert result.per_destination["T1"].routes["B1"] == "H1"
        assert result.per_destination["T2"].routes["B1"] == "H2"

    def test_merged_solution_is_repaired_and_feasible(self, merge_conflict_instance):
        result = solve_two_stage(merge_conflict_instance, hub_budget=2)
        merged = result.merged
        assert check_feasibility(merge_conflict_instance, merged) == []
        assert merged.hubs == frozenset({"H1", "H2"})
        # Volume tie between H1 and H2 resolves to the first hub id.
        assert merged.hub_choice[("B1", "S1")] == "H1"
        assert merged.direct_fraction[("B1", "S1")] == pytest.approx(0.0)

    def test_merged_hubs_are_union_of_stages(self, merge_conflict_instance):
        result = solve_two_stage(merge_conflict_instance, hub_budget=2)
        union = {h for plan in result.per_destination.values() for h in plan.hubs}
        assert set(result.merged.hubs) == union

    def test_dominated_by_oracle_on_tiny_instances(self):
        for seed in (7, 9, 12):
            inst = generate(seed, 4, 2, 2, 0.6, "consolidation_favorable")
            oracle = enumerate_optimal(
                inst, OracleLimits(max_hub_set_size=4, max_evaluations=1e9)
            )
            result = solve_two_stage(inst, hub_budget=2)
            merged_cost = evaluate_cost(inst, result.merged, "approx").total
            assert merged_cost >= oracle.cost.total - 1e-9 * max(1.0, oracle.cost.total)


    def test_past_deadline_raises(self):
        inst = generate(3, 8, 3, 4, 0.6, "uniform")
        with pytest.raises(TimeBudgetError):
            solve_two_stage(inst, deadline=time.monotonic() - 1.0)

    def test_deadline_checked_inside_one_destination(self):
        inst = generate(3, 24, 3, 1, 0.9, "consolidation_favorable")
        (t,) = inst.nodes.destination_ports
        with pytest.raises(TimeBudgetError):
            solve_single_destination(inst, t, deadline=time.monotonic() - 1.0)

    def test_stats_repeat_exactly(self):
        inst = generate(5, 8, 3, 4, 0.6, "consolidation_favorable")
        runs = []
        for _ in range(2):
            ts, ls = SearchStats(), SearchStats()
            merged = solve_two_stage(inst, stats=ts).merged
            local_search_improve(inst, merged, stats=ls)
            runs.append((ts, ls))
        assert runs[0] == runs[1]
        ts, ls = runs[0]
        assert ts.delta_evaluations > ts.full_evaluations > 0
        assert ls.delta_evaluations > 0 and ls.full_evaluations > 0
        assert ls.accepted_moves > 0


class TestNoHubs:
    def test_single_branch_two_ports_picks_argmin(self):
        inst = consolidation_cluster_instance()
        inst = dataclasses.replace(inst, demand={("B1", "T1"): 4.0})
        sol = solve_no_hubs(inst)
        assert sol.port_choice == {("B1", "T1"): "S1"}
        assert sol.hubs == frozenset()

    def test_zero_demand(self, toy_instance):
        inst = dataclasses.replace(toy_instance, demand={})
        sol = solve_no_hubs(inst)
        assert evaluate_cost(inst, sol, "approx").total == 0.0

    def test_couples_through_sea_consolidation(self):
        # Splitting 30+30 across two ports costs two NVOCC runs; bundling on
        # one port fills a container.  The optimum must bundle.
        inst = consolidation_cluster_instance()
        inst = dataclasses.replace(
            inst,
            demand={("B1", "T1"): 30.0, ("B2", "T1"): 30.0},
            sea_rates={
                ("S1", "T1"): SeaRate(fcl_per_container=900.0, nvocc_per_m3=40.0),
                ("S2", "T1"): SeaRate(fcl_per_container=900.0, nvocc_per_m3=40.0),
            },
        )
        sol = solve_no_hubs(inst)
        assert len(set(sol.port_choice.values())) == 1

    def test_refuses_oversized_assignment_space(self):
        inst = generate(3, 6, 4, 6, 1.0, "uniform")
        with pytest.raises(OracleLimitError):
            solve_no_hubs(inst, OracleLimits(max_evaluations=100.0))


class TestLocalSearch:
    def test_zero_rounds_returns_start(self, toy_instance, monkeypatch):
        monkeypatch.setattr(heuristics, "MAX_SEARCH_ROUNDS", 0)
        start = Solution(port_choice={("B1", "T1"): "S1", ("B2", "T1"): "S1"})
        assert local_search_improve(toy_instance, start) is start

    def test_rejects_infeasible_start(self, toy_instance):
        with pytest.raises(InfeasibleSolutionError):
            local_search_improve(toy_instance, Solution(port_choice={}))

    def test_improves_no_hub_solution_on_consolidation_instance(self):
        inst = generate(7, 4, 2, 2, 0.6, "consolidation_favorable")
        start = solve_no_hubs(inst)
        improved = local_search_improve(inst, start)
        start_cost = evaluate_cost(inst, start, "approx").total
        improved_cost = evaluate_cost(inst, improved, "approx").total
        assert improved_cost < start_cost
        assert improved.hubs  # it opened at least one hub
        assert check_feasibility(inst, improved) == []

    def test_oracle_optimum_is_locally_optimal(self):
        inst = generate(9, 3, 2, 2, 0.7, "consolidation_favorable")
        oracle = enumerate_optimal(
            inst, OracleLimits(max_hub_set_size=3, max_evaluations=1e9)
        )
        after = local_search_improve(inst, oracle.solution)
        assert after == oracle.solution

    def test_never_increases_cost(self):
        inst = generate(13, 4, 2, 2, 0.5, "uniform")
        ts = solve_two_stage(inst, hub_budget=2)
        before = evaluate_cost(inst, ts.merged, "approx").total
        after = local_search_improve(inst, ts.merged)
        assert evaluate_cost(inst, after, "approx").total <= before + 1e-9

    def test_deadline_checked_per_candidate_move(self, monkeypatch):
        # The clock passes the deadline as the first candidate move ends;
        # the next candidate must not be tried.
        inst = generate(3, 8, 3, 4, 0.6, "uniform")
        start = solve_two_stage(inst).merged
        clock = [0.0]
        monkeypatch.setattr(errors, "time", SimpleNamespace(monotonic=lambda: clock[0]))
        tried = []
        real_try = heuristics._try

        def try_then_expire(*args):
            tried.append(real_try(*args))
            clock[0] = 2.0
            return tried[-1]

        monkeypatch.setattr(heuristics, "_try", try_then_expire)
        with pytest.raises(TimeBudgetError, match="local search exceeded its time budget"):
            local_search_improve(inst, start, deadline=1.0)
        assert len(tried) == 1
