"""Exhaustive oracle: exactness anchors, determinism, and refusals."""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from solgen import random_feasible_solution

from hublocate import (
    check_feasibility,
    enumerate_optimal,
    evaluate_cost,
    generate,
    solve_no_hubs,
)
from hublocate import errors, exact_oracle
from hublocate.errors import OracleLimitError, TimeBudgetError
from hublocate.exact_oracle import OracleLimits, _Kernel, estimate_configurations

WIDE_OPEN = OracleLimits(max_hub_set_size=4, max_evaluations=1e9)


class TestExactness:
    def test_single_shipment_hand_formula(self, toy_instance):
        inst = dataclasses.replace(toy_instance, demand={("B1", "T1"): 6.0})
        result = enumerate_optimal(inst, WIDE_OPEN)
        assert result.solution.hubs == frozenset()
        assert result.solution.port_choice == {("B1", "T1"): "S1"}
        # approx land 6/8 * 60 + port consolidation 12 + sea 120
        assert result.cost.total == pytest.approx(177.0)
        assert result.exact_cost.total == pytest.approx(192.0)

    def test_consolidation_instance_beats_no_hub(self):
        inst = generate(7, 4, 2, 2, 0.6, "consolidation_favorable")
        result = enumerate_optimal(inst, WIDE_OPEN)
        assert len(result.solution.hubs) >= 1
        no_hub = evaluate_cost(inst, solve_no_hubs(inst), "approx").total
        assert result.cost.total < no_hub - 1e-9

    def test_output_is_feasible(self):
        for seed in (1, 7, 15):
            inst = generate(seed, 4, 2, 2, 0.5,
                            "uniform" if seed != 7 else "consolidation_favorable")
            result = enumerate_optimal(inst, WIDE_OPEN)
            assert check_feasibility(inst, result.solution) == []

    def test_random_sampling_never_beats_oracle(self):
        inst = generate(7, 4, 2, 2, 0.6, "consolidation_favorable")
        result = enumerate_optimal(inst, WIDE_OPEN)
        rng = random.Random(123)
        slack = 1e-9 * max(1.0, result.cost.total)
        for _ in range(10_000):
            sample = random_feasible_solution(inst, rng)
            cost = evaluate_cost(inst, sample, "approx").total
            assert cost >= result.cost.total - slack


class TestDeterminism:
    def test_repeat_runs_identical(self):
        inst = generate(12, 4, 2, 2, 0.6, "consolidation_favorable")
        a = enumerate_optimal(inst, WIDE_OPEN)
        b = enumerate_optimal(inst, WIDE_OPEN)
        assert a.solution == b.solution
        assert a.cost == b.cost
        assert a.evaluated == b.evaluated


class TestLimits:
    def test_dimension_refusal(self):
        inst = generate(1, 7, 2, 2, 0.5, "uniform")
        with pytest.raises(OracleLimitError):
            enumerate_optimal(inst, OracleLimits())

    @pytest.mark.parametrize("size", [(4, 5, 2), (4, 2, 5)], ids=["ports", "destinations"])
    def test_dimension_refusal_on_every_axis(self, size):
        inst = generate(1, *size, 0.5, "uniform")
        with pytest.raises(OracleLimitError, match="exceeds oracle limits") as err:
            enumerate_optimal(inst, OracleLimits())
        assert err.value.estimate is None

    def test_budget_refusal_reports_estimate(self):
        inst = generate(2, 4, 2, 2, 0.9, "uniform")
        limits = OracleLimits(max_hub_set_size=4, max_evaluations=10.0)
        with pytest.raises(OracleLimitError) as err:
            enumerate_optimal(inst, limits)
        assert err.value.estimate == estimate_configurations(inst, limits)

    def test_estimate_bounds_actual_visits(self):
        inst = generate(1, 4, 2, 2, 0.5, "uniform")
        limits = OracleLimits(max_hub_set_size=4, max_evaluations=1e9)
        result = enumerate_optimal(inst, limits)
        assert result.evaluated <= estimate_configurations(inst, limits)

    def test_deadline_aborts(self):
        inst = generate(8, 4, 2, 2, 0.5, "uniform")
        with pytest.raises(TimeBudgetError):
            enumerate_optimal(inst, WIDE_OPEN, deadline=time.monotonic() - 1.0)

    @pytest.mark.parametrize("solve", [
        lambda inst, deadline: enumerate_optimal(
            inst, OracleLimits(max_hub_set_size=0), deadline=deadline),
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
            enumerate_optimal(inst, OracleLimits(max_hub_set_size=2), deadline=1.0)
        assert len(built) == 1

    def test_deadline_checked_per_configuration(self, monkeypatch):
        # Hub set (B01,) has three configurations here (B03, B02 or both
        # routed via B01), all solved without a deadline.  The clock passes
        # the deadline as the first of them is solved: the enumeration must
        # stop before solving the second.
        inst = generate(1, 3, 2, 1, 1.0, "consolidation_favorable")
        full = []
        real_solve = exact_oracle._SplitProblem.solve

        def record(problem, *args):
            full.append(dict(problem.hub_of))
            return real_solve(problem, *args)

        monkeypatch.setattr(exact_oracle._SplitProblem, "solve", record)
        enumerate_optimal(inst, OracleLimits(max_hub_set_size=2))
        assert full[:4] == [
            {},
            {("B03", "S1"): "B01"},
            {("B02", "S1"): "B01"},
            {("B02", "S1"): "B01", ("B03", "S1"): "B01"},
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
            enumerate_optimal(inst, OracleLimits(max_hub_set_size=2), deadline=1.0)
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
