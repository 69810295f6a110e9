"""Exhaustive oracle: exactness anchors, determinism, and refusals."""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import random
import time
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from solgen import random_feasible_solution

from hublocate import (
    check_feasibility,
    enumerate_optimal,
    evaluate_cost,
    generate,
    local_search_improve,
    solve_no_hubs,
    solve_two_stage,
)
from hublocate import LandCostTable, errors, exact_oracle
from hublocate.cost_model import land_cost_approx
from hublocate.errors import OracleLimitError, TimeBudgetError
from hublocate.exact_oracle import _Kernel
from hublocate.gen import PROFILES
from hublocate.pricing import bound_excludes, price_table

from conftest import doubled_costs, make_toy_instance

WIDE_OPEN = {"hub_budget": 4, "max_evaluations": 1e9}


class TestExactness:
    def test_single_shipment_hand_formula(self, toy_instance):
        inst = dataclasses.replace(toy_instance, demand={("B1", "T1"): 6.0})
        result = enumerate_optimal(inst, **WIDE_OPEN)
        assert result.solution.hubs == frozenset()
        assert result.solution.port_choice == {("B1", "T1"): "S1"}
        # approx land 6/8 * 60 + port consolidation 12 + sea 120
        assert evaluate_cost(inst, result.solution, "approx").total == pytest.approx(177.0)
        assert evaluate_cost(inst, result.solution, "exact").total == pytest.approx(192.0)

    def test_consolidation_instance_beats_no_hub(self):
        inst = generate(7, 4, 2, 2, 0.6, "consolidation_favorable")
        result = enumerate_optimal(inst, **WIDE_OPEN)
        assert len(result.solution.hubs) >= 1
        no_hub = evaluate_cost(inst, solve_no_hubs(inst), "approx").total
        assert evaluate_cost(inst, result.solution, "approx").total < no_hub - 1e-9

    def test_output_is_feasible(self):
        for seed in (1, 7, 15):
            inst = generate(seed, 4, 2, 2, 0.5,
                            "uniform" if seed != 7 else "consolidation_favorable")
            result = enumerate_optimal(inst, **WIDE_OPEN)
            assert check_feasibility(inst, result.solution) == []

    def test_random_sampling_never_beats_oracle(self):
        inst = generate(7, 4, 2, 2, 0.6, "consolidation_favorable")
        result = enumerate_optimal(inst, **WIDE_OPEN)
        best = evaluate_cost(inst, result.solution, "approx").total
        rng = random.Random(123)
        slack = 1e-9 * max(1.0, best)
        for _ in range(10_000):
            sample = random_feasible_solution(inst, rng)
            cost = evaluate_cost(inst, sample, "approx").total
            assert cost >= best - slack


# `evaluated` is 2e4 to 2.5e7 here, about 2 s of oracle CPU in all; the
# answers are pinned in golden/oracle.json too.
CROSS_SOLVER = [(seed, 6, 2, 2, 0.6, profile) for seed in (1, 2, 3) for profile in PROFILES]


class TestCrossSolver:
    @pytest.mark.parametrize("case", CROSS_SOLVER, ids=lambda c: "-".join(map(str, c)))
    def test_oracle_is_no_worse_than_the_heuristics(self, case):
        # At a hub budget that admits the local-search answer's hub set, the
        # optimum of the approximated cost is no worse than it or than the
        # no-hub optimum.
        inst = generate(*case)
        searched = local_search_improve(inst, solve_two_stage(inst).merged)
        result = enumerate_optimal(inst, hub_budget=max(2, len(searched.hubs)))
        best = evaluate_cost(inst, result.solution, "approx").total
        assert best <= evaluate_cost(inst, searched, "approx").total
        assert best <= evaluate_cost(inst, solve_no_hubs(inst), "approx").total


class TestDeterminism:
    def test_repeat_runs_identical(self):
        inst = generate(12, 4, 2, 2, 0.6, "consolidation_favorable")
        a = enumerate_optimal(inst, **WIDE_OPEN)
        b = enumerate_optimal(inst, **WIDE_OPEN)
        assert a.solution == b.solution
        assert evaluate_cost(inst, a.solution, "approx") == evaluate_cost(
            inst, b.solution, "approx"
        )
        assert a.evaluated == b.evaluated


def _record_work(monkeypatch) -> tuple[list, list]:
    """Record each port vector priced and each configuration built."""
    priced, built = [], []
    fixed_cost = _Kernel.fixed_cost
    monkeypatch.setattr(
        _Kernel, "fixed_cost", lambda self, z: priced.append(z) or fixed_cost(self, z)
    )

    class RecordedProblem(exact_oracle._SplitProblem):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(exact_oracle, "_SplitProblem", RecordedProblem)
    return priced, built


# 16 port vectors and 7 hub sets (112 pairs); after the all-direct pass
# the plan holds 240 configurations.
COUNTED = (1, 3, 2, 2, 0.6, "consolidation_favorable")


class TestLimits:
    def test_budget_of_the_planned_count_solves(self):
        result = enumerate_optimal(generate(*COUNTED), hub_budget=2, max_evaluations=240)
        assert result.evaluated == 240

    def test_budget_refusal_reports_the_count(self, monkeypatch):
        # One below the plan: refused after the all-direct pass, before any
        # configuration is built.
        priced, built = _record_work(monkeypatch)
        with pytest.raises(OracleLimitError, match="240 configurations exceed") as err:
            enumerate_optimal(generate(*COUNTED), hub_budget=2, max_evaluations=239)
        assert err.value.count == 240
        assert len(priced) == 16
        assert built == []

    @pytest.mark.parametrize("solve,budget,count", [
        (lambda inst, budget: enumerate_optimal(inst, 2, budget), 111, 112),
        (lambda inst, budget: solve_no_hubs(inst, budget), 15, 16),
    ], ids=["oracle", "no-hub"])
    def test_outer_loop_refusal_comes_before_any_pricing(self, solve, budget, count, monkeypatch):
        # Port vectors times hub sets, one hub set for the no-hub solver.
        priced, built = _record_work(monkeypatch)
        with pytest.raises(OracleLimitError, match=f"^{count} ") as err:
            solve(generate(*COUNTED), budget)
        assert err.value.count == count
        assert priced == built == []

    @pytest.mark.parametrize(
        "size", [(7, 2, 2), (4, 5, 2), (4, 2, 5)], ids=["branches", "ports", "destinations"]
    )
    def test_no_dimension_is_capped(self, size):
        inst = generate(1, *size, 0.5, "uniform")
        result = enumerate_optimal(inst)
        assert check_feasibility(inst, result.solution) == []
        assert result.evaluated == (
            result.stats.threshold_cuts + result.stats.incumbent_cuts
            + result.stats.solved_configurations
        )

    def test_deadline_aborts(self):
        inst = generate(8, 4, 2, 2, 0.5, "uniform")
        with pytest.raises(TimeBudgetError):
            enumerate_optimal(inst, **WIDE_OPEN, deadline=time.monotonic() - 1.0)

    @pytest.mark.parametrize("solve", [
        lambda inst, deadline: enumerate_optimal(
            inst, hub_budget=0, deadline=deadline),
        lambda inst, deadline: solve_no_hubs(inst, deadline=deadline),
    ], ids=["oracle", "no-hub"])
    def test_deadline_checked_during_all_direct_pass(self, solve, monkeypatch):
        # 3**7 port vectors: the all-direct pass must stop within one
        # batch of 256 instead of pricing every vector first.
        inst = generate(3, 4, 3, 3, 0.6, "uniform")
        priced = []
        fixed_cost = _Kernel.fixed_cost
        monkeypatch.setattr(
            _Kernel, "fixed_cost", lambda self, z: priced.append(z) or fixed_cost(self, z)
        )
        with pytest.raises(TimeBudgetError, match="time budget"):
            solve(inst, time.monotonic() - 1.0)
        assert len(priced) < 256

    def test_deadline_checked_per_surviving_vector_of_the_plan(self, monkeypatch):
        # The clock passes the deadline as the first surviving port vector's
        # hub sets are counted: the plan must stop before the next vector,
        # and nothing is built.
        inst = generate(*COUNTED)
        clock = [0.0]
        monkeypatch.setattr(errors, "time", SimpleNamespace(monotonic=lambda: clock[0]))
        counted = []
        real_count = exact_oracle._valid_assignment_count

        def count_then_expire(k, p):
            counted.append((k, p))
            clock[0] = 2.0
            return real_count(k, p)

        monkeypatch.setattr(exact_oracle, "_valid_assignment_count", count_then_expire)
        _, built = _record_work(monkeypatch)
        with pytest.raises(TimeBudgetError, match="oracle exceeded its time budget"):
            enumerate_optimal(inst, hub_budget=2, deadline=1.0)
        assert len(counted) == 7
        assert built == []

    def test_deadline_checked_per_hub_set(self, monkeypatch):
        # The clock passes the deadline as the first configuration after
        # the all-direct pass is built: the enumeration must stop at the
        # next hub set instead of finishing every hub set of the port
        # vector first.
        inst = generate(5, 4, 2, 1, 1.0, "uniform")
        clock = [0.0]
        monkeypatch.setattr(errors, "time", SimpleNamespace(monotonic=lambda: clock[0]))
        built = []

        class CountingProblem(exact_oracle._SplitProblem):
            def __init__(self, *args):
                built.append(args)
                clock[0] = 2.0
                super().__init__(*args)

        monkeypatch.setattr(exact_oracle, "_SplitProblem", CountingProblem)
        with pytest.raises(TimeBudgetError, match="time budget"):
            enumerate_optimal(inst, hub_budget=2, deadline=1.0)
        assert len(built) == 1

    def test_deadline_checked_before_every_hub_set_bound(self, monkeypatch):
        # The first hub set bounded here is cut whole, so the next thing the
        # enumeration builds is another set's bound.  The clock passes the
        # deadline as the first set's bound is built: the enumeration must
        # stop before it builds the next.
        inst = generate(1, 3, 2, 2, 0.8, "uniform")
        real_bound, real_walk = exact_oracle._Bound, exact_oracle._hub_assignments
        events = []

        class RecordedBound(real_bound):
            def __init__(self, *args):
                events.append("bound")
                super().__init__(*args)

        def walk(*args):
            events.append("walk")
            return real_walk(*args)

        with mock.patch.object(exact_oracle, "_Bound", RecordedBound), \
                mock.patch.object(exact_oracle, "_hub_assignments", walk):
            enumerate_optimal(inst, hub_budget=2)
        first = events.index("bound")
        assert events[first + 1] == "bound"

        clock = [0.0]
        monkeypatch.setattr(errors, "time", SimpleNamespace(monotonic=lambda: clock[0]))
        built = []

        class ExpiringBound(real_bound):
            def __init__(self, *args):
                built.append(args)
                clock[0] = 2.0
                super().__init__(*args)

        monkeypatch.setattr(exact_oracle, "_Bound", ExpiringBound)
        with pytest.raises(TimeBudgetError, match="time budget"):
            enumerate_optimal(inst, hub_budget=2, deadline=1.0)
        assert len(built) == 1

    def test_deadline_checked_per_configuration(self, monkeypatch):
        # Hub set (B01,) has three configurations here (B03, B02 or both
        # routed via B01).  The routing bound cuts the second, and the other
        # two are solved without a deadline.  The clock passes the deadline
        # as the first of them is solved: the enumeration must stop before
        # solving the next.
        inst = generate(1, 3, 2, 1, 1.0, "consolidation_favorable")
        full = []
        real_solve = exact_oracle._SplitProblem.solve

        def record(problem, *args):
            full.append(dict(problem.hub_of))
            return real_solve(problem, *args)

        monkeypatch.setattr(exact_oracle._SplitProblem, "solve", record)
        enumerate_optimal(inst, hub_budget=2)
        assert full[:4] == [
            {},
            {("B03", "S1"): "B01"},
            {("B02", "S1"): "B01", ("B03", "S1"): "B01"},
            {("B01", "S1"): "B03", ("B02", "S1"): "B03"},
        ]

        clock = [0.0]
        monkeypatch.setattr(errors, "time", SimpleNamespace(monotonic=lambda: clock[0]))
        solved = []

        def solve_then_expire(problem, *args):
            solved.append(dict(problem.hub_of))
            result = real_solve(problem, *args)
            if problem.hub_of:
                clock[0] = 2.0
            return result

        monkeypatch.setattr(exact_oracle._SplitProblem, "solve", solve_then_expire)
        with pytest.raises(TimeBudgetError, match="oracle exceeded its time budget"):
            enumerate_optimal(inst, hub_budget=2, deadline=1.0)
        assert solved == full[:2]


class TestStats:
    def test_counts_partition_the_evaluated_configurations(self):
        inst = generate(5, 3, 3, 2, 0.8, "nvocc_only_mix")
        result = enumerate_optimal(inst)
        stats = result.stats
        assert result.evaluated == (
            stats.threshold_cuts + stats.incumbent_cuts + stats.solved_configurations
        )
        # Every counter is exercised on this instance.
        assert all(value > 0 for value in dataclasses.asdict(stats).values())

    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_bound_cuts_are_a_part_of_the_cuts(self, seed):
        stats = enumerate_optimal(generate(seed, 3, 3, 2, 0.8, "nvocc_only_mix")).stats
        assert 0 < stats.bound_cuts <= stats.threshold_cuts + stats.incumbent_cuts

    def test_component_solves_count_every_component_solved(self):
        # Two solved configurations of one port assignment here share a
        # component; each is counted.
        inst = generate(2, 3, 2, 2, 0.6, "consolidation_favorable")
        real_members = exact_oracle._SplitProblem._component_members
        components = []

        def record(problem):
            members = real_members(problem)
            components.extend(members)
            return members

        with mock.patch.object(exact_oracle._SplitProblem, "_component_members", record):
            stats = enumerate_optimal(inst, hub_budget=2).stats
        assert components
        assert stats.component_solves == len(components)


def _reversed_branch_names(inst):
    """The instance with its branches renamed so their sort order reverses."""
    branches = inst.nodes.branches
    new = {b: f"R{len(branches) - i:02d}" for i, b in enumerate(branches)}
    return dataclasses.replace(
        inst,
        nodes=dataclasses.replace(inst.nodes, branches=tuple(new[b] for b in branches)),
        demand={(new[b], t): v for (b, t), v in inst.demand.items()},
        setup_cost={new[b]: c for b, c in inst.setup_cost.items()},
        hub_consol_cost={new[b]: c for b, c in inst.hub_consol_cost.items()},
        distance={(new[a], new.get(r, r)): d for (a, r), d in inst.distance.items()},
    )


# The shapes at which both properties were first measured: (instance
# arguments after the seed, hub budget).
METAMORPHIC_SHAPES = [((2, 3, 2, 1.0), 2), ((4, 2, 2, 0.6), 3)]


def _same_optimum_after_reversing_branches(inst, budget) -> None:
    renamed = _reversed_branch_names(inst)
    base = enumerate_optimal(inst, hub_budget=budget).solution
    other = enumerate_optimal(renamed, hub_budget=budget).solution
    assert evaluate_cost(renamed, other, "approx").total == pytest.approx(
        evaluate_cost(inst, base, "approx").total, rel=1e-12
    )


class TestMetamorphic:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 10_000), st.sampled_from(PROFILES), st.sampled_from(METAMORPHIC_SHAPES))
    def test_doubled_costs_double_the_optimum(self, seed, profile, shape):
        size, budget = shape
        inst = generate(seed, *size, profile)
        doubled = doubled_costs(inst)
        base = enumerate_optimal(inst, hub_budget=budget).solution
        twice = enumerate_optimal(doubled, hub_budget=budget).solution
        assert twice == base
        assert evaluate_cost(doubled, twice, "approx").total == (
            2.0 * evaluate_cost(inst, base, "approx").total
        )

    # At the benchmark's oracle shape.  At 4x2x2 with hub budget 3 the
    # property failed on one of 675 instances scanned: the case below.
    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 10_000), st.sampled_from(PROFILES))
    def test_reversed_branch_order_keeps_the_optimum(self, seed, profile):
        _same_optimum_after_reversing_branches(generate(seed, 2, 3, 2, 1.0, profile), 2)

    @pytest.mark.xfail(strict=True, reason=(
        "_SplitProblem.component_cost sums the riders of one port arc before the hub's "
        "own volume, so the share that puts that arc on its 42.528 break rebuilds the "
        "load as 42.528000000000006 in one branch order and prices it a step up: "
        "2548.08 in that order, 2544.39 in the other"
    ))
    def test_reversed_branch_order_keeps_a_three_share_optimum(self):
        inst = generate(1014, 4, 2, 2, 0.6, "consolidation_favorable")
        _same_optimum_after_reversing_branches(inst, 3)


# Evaluation budgets of the two bound properties below.  An example the
# oracle refuses at its budget is rejected, so the examples stay small.
BOUND_TEST_BUDGET = 2e4
SET_BOUND_TEST_BUDGET = 1e3


def _solve_or_reject(inst, budget: int, max_evaluations: float):
    """The oracle's answer, or a rejected example when it refuses the
    instance on its count."""
    try:
        return enumerate_optimal(inst, hub_budget=budget, max_evaluations=max_evaluations)
    except OracleLimitError:
        reject()


def _check_vector_bounds(inst, budget: int) -> None:
    """Each port vector the all-direct pass leaves has a bound at most every
    configuration total at every hub set and at most its all-direct total;
    the vector with the least all-direct total is not cut; the oracle's
    answer with every bound cut off is the one the cuts find."""
    with mock.patch.object(exact_oracle, "bound_excludes", lambda bound, limit: False):
        uncut = _solve_or_reject(inst, budget, SET_BOUND_TEST_BUDGET)
    kernel = _Kernel(inst)
    kept = []
    threshold, first = kernel.best_all_direct(None, "oracle", kept)
    for zvec, fixed, direct_total, vols in kept:
        if fixed > threshold:
            continue
        lower = fixed + kernel.land_bound(vols)
        assert lower <= direct_total + 1e-12 * max(1.0, direct_total)
        if zvec == first:
            assert not bound_excludes(lower, threshold)
        direct_land = {arc: kernel.prices.land_approx(*arc, v) for arc, v in vols.items()}
        for hubs in exact_oracle.hub_subsets(kernel.B, budget):
            setup = sum(kernel.e[h] for h in hubs)
            for assign in exact_oracle._hub_assignments(tuple(sorted(vols)), hubs):
                problem = exact_oracle._SplitProblem(kernel, vols, setup, assign, direct_land)
                _, routing = problem.solve(exact_oracle.OracleStats())
                total = fixed + routing
                assert lower <= total + 1e-12 * max(1.0, total)
    cut = enumerate_optimal(inst, hub_budget=budget)
    assert cut.solution == uncut.solution
    assert cut.evaluated == uncut.evaluated


class TestRoutingBound:
    """The bound that cuts configurations never exceeds their routing cost."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 10_000),
        st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 2)),
        st.sampled_from([0.5, 0.8, 1.0]),
        st.sampled_from(PROFILES),
        st.integers(1, 2),
    )
    def test_bound_never_exceeds_the_routing_cost(self, seed, size, density, profile, budget):
        inst = generate(seed, *size, density, profile)
        real_solve = exact_oracle._SplitProblem.solve
        seen = []

        def record(problem, *args):
            fracs, routing = real_solve(problem, *args)
            seen.append((routing, problem.const, problem.routing_bound()))
            return fracs, routing

        # Without the cut every configuration the constant part does not cut
        # is solved, so the bound is checked on all of them, and the answer
        # must be the one the cut finds.
        with mock.patch.object(exact_oracle, "bound_excludes", lambda bound, limit: False), \
                mock.patch.object(exact_oracle._SplitProblem, "solve", record):
            uncut = _solve_or_reject(inst, budget, BOUND_TEST_BUDGET)
        assert seen
        for routing, const, bound in seen:
            assert routing >= const + bound - 1e-12 * max(1.0, routing)
        assert enumerate_optimal(inst, hub_budget=budget).solution == uncut.solution

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 10_000),
        st.tuples(st.integers(2, 4), st.integers(1, 3), st.integers(1, 2)),
        st.sampled_from([0.5, 0.8, 1.0]),
        st.sampled_from(PROFILES),
        st.integers(1, 2),
    )
    # Two-hub sets whose free pairs take either hub: a set bound that
    # offered them one hub only would exceed a configuration's total here.
    @example(1, (3, 2, 2), 0.8, "consolidation_favorable", 2)
    def test_hub_set_bound_never_exceeds_a_configuration_total(
        self, seed, size, density, profile, budget
    ):
        inst = generate(seed, *size, density, profile)
        real_bound = exact_oracle._Bound
        sets = []

        class RecordedBound(real_bound):
            def __init__(self, kernel, vols, setup, options, direct_land):
                super().__init__(kernel, vols, setup, options, direct_land)
                sets.append((kernel, vols, setup, options, direct_land))

        # Every non-empty hub set that passes the set-up cut and has a hub
        # choice gets a set bound, whichever cuts are on.
        with mock.patch.object(exact_oracle, "bound_excludes", lambda bound, limit: False), \
                mock.patch.object(exact_oracle, "_Bound", RecordedBound):
            uncut = _solve_or_reject(inst, budget, SET_BOUND_TEST_BUDGET)
        for kernel, vols, setup, options, direct_land in sets:
            bound = real_bound(kernel, vols, setup, options, direct_land)
            lower = bound.const + bound.routing_bound()
            hubs = next(iter(options.values()))
            for assign in exact_oracle._hub_assignments(tuple(sorted(vols)), hubs):
                problem = exact_oracle._SplitProblem(kernel, vols, setup, assign, direct_land)
                _, total = problem.solve(exact_oracle.OracleStats())
                assert lower <= total + 1e-12 * max(1.0, total)
        cut = enumerate_optimal(inst, hub_budget=budget)
        assert cut.solution == uncut.solution
        assert cut.evaluated == uncut.evaluated

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 10_000),
        st.tuples(st.integers(2, 4), st.integers(1, 3), st.integers(1, 2)),
        st.sampled_from([0.5, 0.8, 1.0]),
        st.sampled_from(PROFILES),
        st.integers(1, 2),
    )
    @example(1, (3, 2, 2), 0.8, "consolidation_favorable", 2)
    def test_vector_bound_never_exceeds_a_configuration_total(
        self, seed, size, density, profile, budget
    ):
        _check_vector_bounds(generate(seed, *size, density, profile), budget)

    def test_vector_bound_offers_every_hub(self):
        # B1's 10 m3 cost 10/m3 direct (far band) but 2 + 1.2 via B2, whose
        # set-up and consolidation are free, and that routing is optimal: a
        # bound pricing them direct, or their feeder below its full load,
        # would exceed its total, which the bound meets exactly.
        toy = make_toy_instance()
        inst = dataclasses.replace(
            toy,
            demand={("B1", "T1"): 10.0, ("B2", "T1"): 30.0},
            land_costs=dataclasses.replace(
                toy.land_costs, cost=((20.0, 48.0, 80.0), (100.0, 400.0, 800.0))
            ),
            distance={**toy.distance, ("B1", "S1"): 900.0, ("B2", "S1"): 50.0},
            setup_cost={"B1": 50.0, "B2": 0.0},
            hub_consol_cost={"B1": 1.0, "B2": 0.0},
        )
        result = enumerate_optimal(inst)
        assert result.solution.hub_choice == {("B1", "S1"): "B2"}
        _check_vector_bounds(inst, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rate_is_the_least_price_per_m3_up_to_the_load(self, data):
        container = data.draw(st.floats(1.0, 100.0))
        inner = data.draw(st.lists(st.floats(0.01, 0.99), max_size=4, unique=True))
        breaks = tuple(sorted({round(container * u, 6) for u in inner})) + (container,)
        rows = tuple(
            tuple(data.draw(st.floats(0.5, 500.0)) for _ in breaks) for _ in range(2)
        )
        table = LandCostTable(distance_breaks=(100.0, 1000.0), volume_breaks=breaks, cost=rows)
        inst = dataclasses.replace(make_toy_instance(), land_costs=table)
        prices = price_table(inst)
        arc = data.draw(st.sampled_from(sorted(inst.distance)))
        curve = prices.curve(*arc)
        X = data.draw(st.floats(1e-3, 3.0 * container))
        rate = prices.rate(*arc, X)

        def price(x):
            return land_cost_approx(curve, x) / x

        firsts = [w for w in curve.breakpoints if w <= X]
        repeats = [
            n * container + w
            for n in range(1, 3) for w in curve.breakpoints if n * container + w <= X
        ]
        xs = data.draw(st.lists(st.floats(1e-6, 1.0), max_size=10))
        for x in firsts + repeats + [X] + [X * u for u in xs]:
            assert rate <= price(x) * (1.0 + 1e-12)
        assert rate in {price(x) for x in firsts + [X]}


class TestHubSubsets:
    def test_order_smallest_first(self):
        sets = list(exact_oracle.hub_subsets(("B1", "B2", "B3"), 2))
        assert sets == [(), ("B1",), ("B2",), ("B3",),
                        ("B1", "B2"), ("B1", "B3"), ("B2", "B3")]

    def test_is_lazy(self):
        # Two-stage checks its deadline per hub set, so the sets must not be
        # built up front: C(40, 20) alone is about 1.4e11 sets.  Checked
        # first, so a version that builds a list fails before it runs.
        assert inspect.isgeneratorfunction(exact_oracle.hub_subsets)
        sets = exact_oracle.hub_subsets([f"B{i:02d}" for i in range(40)], 20)
        assert iter(sets) is sets
        assert next(sets) == ()
        assert next(sets) == ("B00",)


def _brute_force_hub_choices(active, hubs) -> list:
    """Every map from the active pairs to direct (None) or a hub, kept when
    no pair picks its own branch, pairs of hub branches stay direct and
    every hub is used; in lexicographic order of the choice tuple, direct
    first, then the hubs in `hubs` order."""
    kept = []
    for choice in itertools.product((None, *hubs), repeat=len(active)):
        if any(h == b for (b, _), h in zip(active, choice)):
            continue
        if any(b in hubs and h is not None for (b, _), h in zip(active, choice)):
            continue
        if not set(hubs) <= set(choice):
            continue
        kept.append({p: h for p, h in zip(active, choice) if h is not None})
    return kept


class TestHubAssignments:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_brute_force(self, data):
        branches = [f"B{i}" for i in range(1, data.draw(st.integers(1, 5)) + 1)]
        ports = [f"S{j}" for j in range(1, data.draw(st.integers(1, 3)) + 1)]
        pairs = [(b, s) for b in branches for s in ports]
        active = tuple(sorted(
            data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=5))
        ))
        for hubs in exact_oracle.hub_subsets(branches, 3):
            got = list(exact_oracle._hub_assignments(active, hubs))
            assert got == _brute_force_hub_choices(active, hubs)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_valid_assignment_count_counts_the_hub_choices(self, data):
        # A hub set cut whole counts its configurations by this formula.
        branches = [f"B{i}" for i in range(1, data.draw(st.integers(1, 5)) + 1)]
        ports = [f"S{j}" for j in range(1, data.draw(st.integers(1, 3)) + 1)]
        pairs = [(b, s) for b in branches for s in ports]
        active = tuple(sorted(
            data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6))
        ))
        for hubs in exact_oracle.hub_subsets(branches, 3):
            free = [p for p in active if p[0] not in hubs]
            assert exact_oracle._valid_assignment_count(len(hubs), len(free)) == len(
                list(exact_oracle._hub_assignments(active, hubs))
            )
