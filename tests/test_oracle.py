"""Exhaustive oracle: exactness anchors, determinism, and refusals."""

from __future__ import annotations

import random
import time
from types import SimpleNamespace

import pytest
from solgen import random_feasible_solution

from hublocate import (
    check_feasibility,
    enumerate_optimal,
    evaluate_cost,
    generate,
    solve_no_hubs,
)
from hublocate import exact_oracle
from hublocate.errors import OracleLimitError, TimeBudgetError
from hublocate.exact_oracle import OracleLimits, _Kernel, estimate_configurations
from hublocate.network_model import with_demand

WIDE_OPEN = OracleLimits(max_hub_set_size=4, max_evaluations=1e9)


class TestExactness:
    def test_single_shipment_hand_formula(self, toy_instance):
        inst = with_demand(toy_instance, {("B1", "T1"): 6.0})
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
            enumerate_optimal(inst, OracleLimits(max_branches=6))

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
        monkeypatch.setattr(exact_oracle, "time", SimpleNamespace(monotonic=lambda: clock[0]))
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


class TestStats:
    def test_counts_partition_the_evaluated_configurations(self):
        inst = generate(5, 3, 3, 2, 0.8, "nvocc_only_mix")
        result = enumerate_optimal(inst)
        stats = result.stats
        assert result.evaluated == (
            stats.threshold_cuts + stats.incumbent_cuts + stats.solved_configurations
        )
        # Every counter is exercised on this instance.
        assert all(value > 0 for value in stats.to_dict().values())
