"""Two-stage heuristic, no-hub baseline, and local search behavior."""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from hublocate.exact_oracle import hub_subsets
from hublocate.errors import InfeasibleSolutionError, OracleLimitError, TimeBudgetError
from hublocate.gen import PROFILES
from hublocate.heuristics import MAX_ROUTE_SWEEPS, SearchStats, _DestinationContext
from hublocate.pricing import TIE_RTOL
from hublocate.solution import Solution

from conftest import doubled_costs


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


def outlier_hub_instance() -> Instance:
    """The cluster instance with a fourth branch X: 20 m3 next to B1 only,
    so the {X} trial moves B1 alone and leaves H1 shipping direct."""
    base = consolidation_cluster_instance()
    distance = {**base.distance, ("X", "X"): 0.0, ("X", "S1"): 500.0, ("X", "S2"): 560.0}
    for b, d in (("B1", 8.0), ("B2", 60.0), ("H1", 60.0)):
        distance[("X", b)] = distance[(b, "X")] = d
    return dataclasses.replace(
        base,
        nodes=NodeSets(("B1", "B2", "H1", "X"), ("S1", "S2"), ("T1",)),
        demand={**base.demand, ("X", "T1"): 20.0},
        setup_cost={**base.setup_cost, "X": 40.0},
        hub_consol_cost={**base.hub_consol_cost, "X": 0.5},
        distance=distance,
    )


def all_direct_cost(ctx, ports) -> float:
    return ctx.cost(ports, dict.fromkeys(ctx.branches))


def fresh_trial(inst, t, ports, hub_set) -> tuple:
    """(routes, cost) of one hub-set trial from a context that caches nothing yet."""
    ctx = _DestinationContext(inst, t, SearchStats())
    routes, _, _ = ctx.route_shipments(ports, hub_set, all_direct_cost(ctx, ports))
    return routes, ctx.cost(ports, routes)


def sweep(ctx, ports, hub_budget) -> dict:
    """Hub set -> the (routes, cost) ``hub_set_trials`` yields for it."""
    hub_sets = hub_subsets(ctx.instance.nodes.branches, hub_budget)
    return dict(zip(hub_sets, ctx.hub_set_trials(ports, hub_budget, None), strict=True))


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


def reference_single_destination(inst, t, hub_budget) -> tuple:
    """The alternating search with every hub-set trial routed afresh and
    every port move costed in full, repeated until an iteration brings no
    strict improvement; returns (ports, hubs used, routes, cost)."""
    ctx = _DestinationContext(inst, t, SearchStats())
    ports = ctx.initial_ports()
    routes = dict.fromkeys(ctx.branches)
    cost = ctx.cost(ports, routes)
    while True:
        before = cost
        for hub_set in hub_subsets(inst.nodes.branches, hub_budget):
            trial_routes, c = fresh_trial(inst, t, ports, hub_set)
            if c < cost:
                cost, routes = c, trial_routes
        used = tuple(sorted({h for h in routes.values() if h is not None}))
        for b in ctx.branches:
            for s in ctx.ports:
                if s == ports[b]:
                    continue
                for h in [None] if b in used else [None, *used]:
                    trial_ports, trial_routes = {**ports, b: s}, {**routes, b: h}
                    c = ctx.cost(trial_ports, trial_routes)
                    if c < cost:
                        cost, ports, routes = c, trial_ports, trial_routes
        if cost >= before:
            used = tuple(sorted({h for h in routes.values() if h is not None}))
            return ports, used, routes, cost


class TestRouteDeltas:
    @pytest.mark.parametrize("inst", [
        twin_hub_instance(),
        generate(2, 8, 3, 2, 0.8, "consolidation_favorable"),
        generate(5, 8, 3, 2, 0.8, "nvocc_only_mix"),
    ], ids=["twin-hubs", "consolidation", "nvocc-mix"])
    def test_delta_routing_matches_full_costs(self, inst):
        # A trial in which no branch moved reports the least of its
        # all-direct deltas, the figure rule 5 compares with the margin.
        for t in inst.nodes.destination_ports:
            ctx = _DestinationContext(inst, t, SearchStats())
            if not ctx.branches:
                continue
            ports = ctx.initial_ports()
            b = ctx.branches[0]
            moved = {**ports, b: next(s for s in ctx.ports if s != ports[b])}
            for port_map in (ports, moved):
                direct = dict.fromkeys(ctx.branches)
                direct_cost, loads = ctx.cost(port_map, direct), ctx.loads(port_map, direct)
                for hub_set in hub_subsets(inst.nodes.branches, 2):
                    routes, movers, least = ctx.route_shipments(port_map, hub_set, direct_cost)
                    assert routes == full_cost_routes(ctx, port_map, hub_set)
                    if hub_set and not movers:
                        assert least == min((
                            ctx.delta(port_map, direct, loads, x, port_map[x], h)
                            for x in ctx.branches if x not in hub_set for h in hub_set
                        ), default=math.inf)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_hub_set_trials_match_fresh_routings(self, profile):
        # One context per destination sweeps every hub set of up to three
        # hubs at two port vectors, so trials read off smaller ones (rule 5)
        # meet the caches they rely on; each must equal a fresh context's
        # routing and full cost.
        stats = SearchStats()
        for density in (0.6, 0.9):
            inst = generate(4, 8, 3, 2, density, profile)
            for t in inst.nodes.destination_ports:
                ctx = _DestinationContext(inst, t, stats)
                if not ctx.branches:
                    continue
                ports = ctx.initial_ports()
                b = ctx.branches[0]
                moved = {**ports, b: next(s for s in ctx.ports if s != ports[b])}
                for port_map in (ports, moved):
                    for hub_set, trial in sweep(ctx, port_map, 3).items():
                        assert trial == fresh_trial(inst, t, port_map, hub_set)
        assert stats.inert_hub_hits > 0

    def test_clearly_inert_hub_that_moved_is_routed(self):
        # Opening B2 costs so much that no branch would route via it, so B2
        # is clearly inert; but in the {H1} trial branch B2 itself moves
        # onto H1.  The pair trial must route again, with B2 shipping direct.
        base = consolidation_cluster_instance()
        inst = dataclasses.replace(base, setup_cost={**base.setup_cost, "B2": 1e5})
        stats = SearchStats()
        ctx = _DestinationContext(inst, "T1", stats)
        ports = {b: "S1" for b in ctx.branches}
        direct = dict.fromkeys(ctx.branches)
        direct_cost = ctx.cost(ports, direct)
        loads = ctx.loads(ports, direct)
        margin = heuristics.CLEAR_MARGIN * direct_cost
        assert all(ctx.delta(ports, direct, loads, b, "S1", "B2") > margin for b in ("B1", "H1"))
        trials = sweep(ctx, ports, 2)
        assert trials[("B2",)] == (direct, direct_cost)
        assert trials[("H1",)][0] == {"B1": "H1", "B2": "H1", "H1": None}
        assert trials[("B2", "H1")] == fresh_trial(inst, "T1", ports, ("B2", "H1"))
        assert trials[("B2", "H1")][0] == {"B1": "H1", "B2": None, "H1": None}
        assert stats.inert_hub_hits == 0

    def test_hub_just_above_a_tie_is_inert_but_not_clearly(self):
        # H1's set-up is tuned so that moving B1 or B2 onto it costs 1e-4
        # more than shipping direct: outside the tie band, inside the margin.
        # H1 is inert, but the {H1, X} trial is routed, not read off {X}.
        base = outlier_hub_instance()
        ctx = _DestinationContext(base, "T1", SearchStats())
        ports = {b: "S1" for b in ctx.branches}
        direct = dict.fromkeys(ctx.branches)
        gain = base.setup_cost["H1"] - ctx.delta(
            ports, direct, ctx.loads(ports, direct), "B1", "S1", "H1"
        )
        inst = dataclasses.replace(base, setup_cost={**base.setup_cost, "H1": gain + 1e-4})
        stats = SearchStats()
        ctx = _DestinationContext(inst, "T1", stats)
        direct_cost = all_direct_cost(ctx, ports)
        assert TIE_RTOL * direct_cost < 1e-4 < heuristics.CLEAR_MARGIN * direct_cost
        trials = sweep(ctx, ports, 2)
        assert trials[("H1",)] == (direct, direct_cost)
        assert trials[("X",)][0] == {**direct, "B1": "X"}
        assert trials[("H1", "X")] == fresh_trial(inst, "T1", ports, ("H1", "X"))
        assert stats.inert_hub_hits == 0

    def test_exact_ties_fall_back_to_full_costs(self):
        inst = twin_hub_instance()
        stats = SearchStats()
        ctx = _DestinationContext(inst, "T1", stats)
        ports = {b: "S1" for b in ctx.branches}
        routes, _, _ = ctx.route_shipments(ports, ("H1", "H2"), all_direct_cost(ctx, ports))
        assert stats.near_tie_fallbacks > 0
        assert routes == {"B1": "H1", "B2": "H1", "H1": None, "H2": None}

    def test_near_tie_goes_to_the_later_hub_when_its_full_cost_is_lower(self):
        # H2's set-up is lowered by 1e-10 of the total: inside the tie band,
        # so full costs decide, and they prefer H2 although H1 comes first.
        base = twin_hub_instance()
        ports = {b: "S1" for b in base.nodes.branches}
        total = all_direct_cost(_DestinationContext(base, "T1", SearchStats()), ports)
        inst = dataclasses.replace(
            base, setup_cost={**base.setup_cost, "H2": base.setup_cost["H2"] - 1e-10 * total}
        )
        stats = SearchStats()
        ctx = _DestinationContext(inst, "T1", stats)
        routes, _, _ = ctx.route_shipments(ports, ("H1", "H2"), total)
        assert stats.near_tie_fallbacks == 1
        assert routes == {"B1": "H2", "B2": "H2", "H1": None, "H2": None}
        assert routes == full_cost_routes(ctx, ports, ("H1", "H2"))


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

    def test_port_step_settles_a_tie_between_identical_ports_in_full(self):
        # B1 alone ships, and S2 is a copy of S1, so the port step's move of
        # B1 to S2 prices at exactly 0: a near tie, costed in full and not
        # taken, since it is no strict improvement.
        base = consolidation_cluster_instance()
        inst = dataclasses.replace(
            base,
            demand={("B1", "T1"): 4.0},
            distance={**base.distance, **{(b, "S2"): 500.0 for b in base.nodes.branches}},
        )
        stats = SearchStats()
        plan = solve_single_destination(inst, "T1", 2, stats)
        assert (plan.ports, plan.routes, plan.iterations) == ({"B1": "S1"}, {"B1": None}, 1)
        assert stats.near_tie_fallbacks == 1 and stats.accepted_moves == 0

    def test_cluster_instance_opens_the_central_hub(self):
        inst = consolidation_cluster_instance()
        plan = solve_single_destination(inst, "T1", hub_budget=2)
        assert plan.hubs == ("H1",)
        assert plan.routes["B1"] == "H1" and plan.routes["B2"] == "H1"
        best_cost, best_hubs = brute_force_single_destination(inst, "T1", 2)
        assert best_hubs == frozenset({"H1"})
        assert plan.cost == pytest.approx(best_cost, rel=1e-9)

    def test_iterations_bounded_and_counted(self):
        # An iteration whose port step moves nothing is the last one.  On
        # the cluster instance step 1 opens H1 and no port move follows;
        # on the generated one port moves keep the search going.
        inst = consolidation_cluster_instance()
        stats = SearchStats()
        assert solve_single_destination(inst, "T1", 2, stats).iterations == 1
        assert stats.accepted_moves == 2
        inst = generate(7, 8, 3, 2, 0.6, "consolidation_favorable")
        stats = SearchStats()
        assert solve_single_destination(inst, "T1", 2, stats).iterations == 3
        assert stats.accepted_moves == 12

    @pytest.mark.parametrize("profile", PROFILES)
    def test_stops_where_the_strict_improvement_loop_stops(self, profile):
        for density, hub_budget in itertools.product((0.6, 0.9), (1, 2, 3)):
            inst = generate(7, 8, 3, 2, density, profile)
            for t in inst.nodes.destination_ports:
                plan = solve_single_destination(inst, t, hub_budget)
                assert (plan.ports, plan.hubs, plan.routes, plan.cost) == (
                    reference_single_destination(inst, t, hub_budget)
                )

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("seed", range(100, 110))
    def test_plan_cost_is_the_evaluators_total(self, seed, profile):
        # Bit for bit: another summation order moves about one plan cost in
        # five in the last bits (seed 101 consolidation_favorable, T1:
        # 1299.03774 against the evaluator's 1299.0377400000002).
        inst = generate(seed, 8, 3, 4, 0.6, profile)
        for t in inst.nodes.destination_ports:
            plan = solve_single_destination(inst, t, 2)
            assert plan.cost == evaluate_cost(*plan_solution(inst, plan), "exact").total


def plan_solution(inst, plan) -> tuple:
    """(instance cut down to the plan's destination, the plan's decisions
    as a solution with every routed share 0)."""
    t = plan.destination
    routed = {(b, plan.ports[b]): h for b, h in plan.routes.items() if h is not None}
    return (
        dataclasses.replace(inst, demand={k: v for k, v in inst.demand.items() if k[1] == t}),
        Solution(
            port_choice={(b, t): s for b, s in plan.ports.items()},
            hubs=frozenset(plan.hubs),
            direct_fraction=dict.fromkeys(routed, 0.0),
            hub_choice=routed,
        ),
    )


class TestTwoStage:
    def test_single_destination_merge_is_plain(self):
        inst = consolidation_cluster_instance()
        result = solve_two_stage(inst, hub_budget=2)
        assert result.violations == []
        assert result.merged.hubs == frozenset({"H1"})
        assert check_feasibility(inst, result.merged) == []
        plan = result.per_destination["T1"]
        assert evaluate_cost(inst, result.merged, "exact").total == pytest.approx(
            plan.cost, rel=1e-9
        )

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
            oracle = enumerate_optimal(inst, hub_budget=4, max_evaluations=1e9)
            best = evaluate_cost(inst, oracle.solution, "approx").total
            result = solve_two_stage(inst, hub_budget=2)
            merged_cost = evaluate_cost(inst, result.merged, "approx").total
            assert merged_cost >= best - 1e-9 * max(1.0, best)


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
            solve_no_hubs(inst, max_evaluations=100.0)


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
        oracle = enumerate_optimal(inst, hub_budget=3, max_evaluations=1e9)
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


def _search(inst, cuts: bool = True) -> tuple:
    """Two-stage then local search; (answer, local-search counters)."""
    stats = SearchStats()
    start = solve_two_stage(inst).merged
    if cuts:
        return local_search_improve(inst, start, stats=stats), stats
    with mock.patch.object(heuristics, "bound_excludes", lambda bound, limit: False):
        return local_search_improve(inst, start, stats=stats), stats


# Random valid generator instances up to the benchmark's 8x3x4.
SEARCH_INSTANCES = st.builds(
    generate,
    st.integers(1, 10_000),
    st.integers(1, 8),
    st.integers(1, 3),
    st.integers(1, 4),
    st.sampled_from([0.4, 0.6, 0.9]),
    st.sampled_from(PROFILES),
)


def _near_or_below(bound: float, value: float) -> bool:
    return bound <= value + 1e-12 * max(1.0, abs(value))


class TestBoundCuts:
    """The lower bound local search cuts hub openings by (exactness rule 6)
    never exceeds what the uncut opening reaches, and no other move is cut."""

    # Dropping the slack of the arcs a pair leaves fails on the example.
    @settings(max_examples=40, deadline=None)
    @given(SEARCH_INSTANCES)
    @example(generate(4, 4, 2, 1, 0.9, "consolidation_favorable"))
    def test_opening_bound_is_below_the_greedy(self, inst):
        real_open, real_bound = heuristics._open_hub, heuristics._opening_bound
        seen = []

        def record_bound(*args):
            seen.append([real_bound(*args), None])
            return seen[-1][0]

        def open_and_record(*args):
            seen[-1][1] = cost = real_open(*args)
            return cost

        with mock.patch.object(heuristics, "_opening_bound", record_bound), \
                mock.patch.object(heuristics, "_open_hub", open_and_record):
            _search(inst, cuts=False)
        for bound, cost in seen:
            assert _near_or_below(bound, cost)

    @settings(max_examples=30, deadline=None)
    @given(SEARCH_INSTANCES)
    def test_cuts_leave_the_answer_and_the_moves_alone(self, inst):
        cut, with_cuts = _search(inst)
        uncut, without = _search(inst, cuts=False)
        assert cut == uncut
        for name in ("moves_tried", "moves_accepted", "accepted_moves"):
            assert getattr(with_cuts, name) == getattr(without, name)
        assert without.bound_cuts == 0

    def test_cuts_skip_only_hub_openings(self):
        inst = generate(100, 8, 3, 4, 0.6, "uniform")
        kinds = []
        real_try = heuristics._try

        def count_cuts(state, kind, *args, **kwargs):
            before = state.stats.bound_cuts
            result = real_try(state, kind, *args, **kwargs)
            if state.stats.bound_cuts > before:
                kinds.append(kind)
            return result

        with mock.patch.object(heuristics, "_try", count_cuts):
            _, stats = _search(inst)
        assert stats.bound_cuts == len(kinds)
        assert {"hub_toggle"} == set(kinds)
        assert stats.moves_tried["port"] > 0


def assert_doubled_costs_double_the_answer(inst):
    """Two-stage's start and the local-search answer are the same on the
    instance with every cost doubled, at exactly twice both totals."""
    def answers(i):
        start = solve_two_stage(i).merged
        return start, local_search_improve(i, start)

    doubled = doubled_costs(inst)
    for base, twice in zip(answers(inst), answers(doubled), strict=True):
        assert twice == base
        for mode in ("approx", "exact"):
            assert evaluate_cost(doubled, twice, mode).total == (
                2.0 * evaluate_cost(inst, base, mode).total
            )


class TestMetamorphic:
    # Every margin of the searches is relative, so scaling every cost by 2
    # (exact in floating point) scales every comparison alike.
    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 10_000), st.sampled_from(PROFILES))
    def test_doubled_costs_double_the_answer(self, seed, profile):
        assert_doubled_costs_double_the_answer(generate(seed, 8, 3, 4, 0.6, profile))

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("seed", range(100, 110))
    def test_doubled_costs_double_the_benchmark_answers(self, seed, profile):
        assert_doubled_costs_double_the_answer(generate(seed, 8, 3, 4, 0.6, profile))

    # Instance stores demand in sorted pair order, so no sum over demand
    # depends on how the input lists it.  Listed in reverse, these seeds
    # gave other plan costs in the last bits (seed 100 uniform, T4), plan
    # costs off the evaluator's total, and another local-search answer at
    # an equal approximated cost (seed 110 consolidation_favorable).
    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("seed", range(100, 112))
    def test_demand_listing_order_changes_no_answer(self, seed, profile):
        inst = generate(seed, 8, 3, 4, 0.6, profile)
        flipped = dataclasses.replace(inst, demand=dict(reversed(list(inst.demand.items()))))
        for t in inst.nodes.destination_ports:
            plan = solve_single_destination(flipped, t, 2)
            assert plan.cost == solve_single_destination(inst, t, 2).cost
            assert plan.cost == evaluate_cost(*plan_solution(flipped, plan), "exact").total
        answers = []
        for case in (inst, flipped):
            improved = local_search_improve(case, solve_two_stage(case, 2).merged)
            answers.append(
                (improved, *(evaluate_cost(case, improved, m).total for m in ("approx", "exact")))
            )
        assert answers[0] == answers[1]
