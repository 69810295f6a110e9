"""Model construction, size laws, LP/MPS emission, and encode/decode."""

from __future__ import annotations

import dataclasses
import math
import random
from pathlib import Path

import pytest
from refparse import parse_lp, parse_mps
from solgen import random_feasible_solution

from hublocate import (
    Instance,
    LandCostTable,
    NodeSets,
    SeaRate,
    build_linearized_model,
    check_feasibility,
    decode_solution,
    emit_lp,
    emit_mps,
    encode_solution,
    evaluate_cost,
    generate,
    solve_two_stage,
)
from hublocate.errors import InfeasibleSolutionError, ModelDecodeError
from hublocate.milp import (
    constraint_counts,
    format_values_text,
    max_residual,
    parse_values_text,
    variable_counts,
)
from hublocate.solution import Solution

from conftest import feeder_load_on_a_break

GOLDEN = Path(__file__).parent / "golden"


def variables_by_name(model) -> dict:
    return {v.name: v for v in model.variables}


def full_demand_instance(n_b: int, n_s: int, n_t: int) -> Instance:
    """Fully demanded, fully rated instance with a j = 3 step curve."""
    branches = tuple(f"B{i}" for i in range(1, n_b + 1))
    ports = tuple(f"S{i}" for i in range(1, n_s + 1))
    dests = tuple(f"T{i}" for i in range(1, n_t + 1))
    distance = {}
    for i, b in enumerate(branches):
        for j, r in enumerate(branches):
            distance[(b, r)] = 0.0 if b == r else 25.0 + 3.0 * abs(i - j)
        for j, s in enumerate(ports):
            distance[(b, s)] = 300.0 + 10.0 * i + 5.0 * j
    return Instance(
        nodes=NodeSets(branches, ports, dests),
        demand={(b, t): 5.0 + i for i, (b, t) in enumerate(
            (b, t) for b in branches for t in dests
        )},
        land_costs=LandCostTable(
            distance_breaks=(100.0, 1000.0),
            volume_breaks=(10.0, 40.0, 80.0),
            cost=((20.0, 48.0, 80.0), (60.0, 144.0, 240.0)),
        ),
        sea_rates={(s, t): SeaRate(fcl_per_container=500.0, nvocc_per_m3=20.0)
                   for s in ports for t in dests},
        setup_cost={b: 50.0 for b in branches},
        hub_consol_cost={b: 1.0 for b in branches},
        port_consol_cost={s: 2.0 for s in ports},
        distance=distance,
        land_container_volume=80.0,
        name=f"full-{n_b}-{n_s}-{n_t}",
    )


def expected_counts(instance: Instance, j: int) -> tuple[int, int]:
    """Closed-form variable and constraint totals (see milp module docs)."""
    n_b = len(instance.nodes.branches)
    n_s = len(instance.nodes.origin_ports)
    pairs = instance.positive_pairs()
    p = len(pairs)
    a = sum(len(instance.usable_ports(t)) for (_, t) in pairs)
    u = len(instance.sea_rates)
    u_nv = sum(1 for r in instance.sea_rates.values() if r.nvocc_per_m3 is not None)
    r = n_b * (n_b + n_s)
    n_vars = a + n_b + 2 * n_b * n_b * n_s + n_b * n_s + r * (j + 1) + u + u_nv
    n_rows = p + 3 * n_b * n_b * n_s + 2 * n_b * n_s + 2 * r + u
    return n_vars, n_rows


class TestModelSize:
    def test_spec_toy_family_counts(self):
        model = build_linearized_model(full_demand_instance(3, 2, 2))
        counts = variable_counts(model)
        assert counts["z"] == 12
        assert counts["x"] == 3
        assert counts["y"] == 18
        assert counts["vd"] + counts["vh"] == 24
        assert counts["nL"] == 15 and counts["uL0"] == 15 and counts["uLi"] == 30
        assert counts["nS"] == 4 and counts["uS"] == 4

    @pytest.mark.parametrize("dims", [(2, 1, 1), (3, 2, 2), (4, 2, 3)])
    def test_closed_forms(self, dims):
        instance = full_demand_instance(*dims)
        model = build_linearized_model(instance)
        n_vars, n_rows = expected_counts(instance, j=3)
        assert len(model.variables) == n_vars
        assert len(model.constraints) == n_rows

    def test_linearization_count_independent_of_destinations(self):
        base = variable_counts(build_linearized_model(full_demand_instance(3, 2, 2)))
        doubled = variable_counts(build_linearized_model(full_demand_instance(3, 2, 4)))
        assert base["vh"] == doubled["vh"] == 3 * 3 * 2
        assert base["y"] == doubled["y"]
        assert doubled["z"] == 2 * base["z"]

    def test_quadratic_growth_in_branches(self):
        c3 = variable_counts(build_linearized_model(full_demand_instance(3, 2, 2)))
        c6 = variable_counts(build_linearized_model(full_demand_instance(6, 2, 2)))
        assert c6["vh"] == 4 * c3["vh"]


class TestCoefficients:
    def test_nvocc_only_relation_priced_at_penalty(self, toy_instance):
        inst = dataclasses.replace(
            toy_instance, sea_rates={("S1", "T1"): SeaRate(nvocc_per_m3=20.0)}
        )
        variables = variables_by_name(build_linearized_model(inst))
        assert variables["nS_S1_T1"].obj == inst.nvocc_penalty
        assert variables["uS_S1_T1"].upper == inst.nvocc_cap

    def test_fcl_only_relation_has_no_nvocc_variable(self, toy_instance):
        inst = dataclasses.replace(
            toy_instance, sea_rates={("S1", "T1"): SeaRate(fcl_per_container=500.0)}
        )
        model = build_linearized_model(inst)
        assert "uS_S1_T1" not in variables_by_name(model)
        sea = next(c for c in model.constraints if c.name == "sea_S1_T1")
        assert "uS_S1_T1" not in sea.coeffs

    def test_big_m_is_per_branch_total_demand(self, toy_instance):
        model = build_linearized_model(toy_instance)
        bigm = next(c for c in model.constraints if c.name == "bigm_B1_S1_B2")
        assert bigm.coeffs["y_B1_S1_B2"] == -6.0

    def test_no_hub_fixing_zeroes_bounds(self, toy_instance):
        variables = variables_by_name(build_linearized_model(toy_instance, fix_no_hubs=True))
        assert variables["x_B1"].upper == 0.0
        assert variables["y_B1_S1_B2"].upper == 0.0
        assert variables["vh_B1_S1_B2"].upper == 0.0


class TestEmission:
    def test_golden_lp_stable(self, toy_instance):
        text = emit_lp(build_linearized_model(toy_instance))
        assert text == (GOLDEN / "toy_model.lp").read_text()

    def test_golden_mps_stable(self, toy_instance):
        text = emit_mps(build_linearized_model(toy_instance))
        assert text == (GOLDEN / "toy_model.mps").read_text()

    def test_emission_deterministic_across_runs(self, toy_instance):
        a = emit_lp(build_linearized_model(toy_instance))
        b = emit_lp(build_linearized_model(toy_instance))
        assert a == b

    @pytest.mark.parametrize("fmt", ["lp", "mps"])
    def test_reference_parser_reproduces_matrix(self, fmt, toy_instance):
        model = build_linearized_model(toy_instance)
        text = emit_lp(model) if fmt == "lp" else emit_mps(model)
        parsed = parse_lp(text) if fmt == "lp" else parse_mps(text)
        assert parsed.objective == {
            v.name: v.obj for v in model.variables if v.obj != 0.0
        }
        assert set(parsed.constraints) == {c.name for c in model.constraints}
        for c in model.constraints:
            coeffs, sense, rhs = parsed.constraints[c.name]
            assert coeffs == dict(c.coeffs)
            assert sense == c.sense
            assert rhs == pytest.approx(c.rhs)
        assert parsed.binaries == {v.name for v in model.variables if v.kind == "binary"}
        assert parsed.integers == {v.name for v in model.variables if v.kind == "integer"}

    def test_numerals_at_most_12_significant_digits(self):
        inst = full_demand_instance(2, 1, 1)
        inst = dataclasses.replace(
            inst, demand={k: 7.123456789012345 for k in inst.demand}
        )
        text = emit_lp(build_linearized_model(inst))
        assert "7.12345678901 " in text
        assert "7.123456789012345" not in text


class TestEncodeDecode:
    def test_all_direct_round_trip(self, toy_instance):
        model = build_linearized_model(toy_instance)
        sol = Solution(port_choice={("B1", "T1"): "S1", ("B2", "T1"): "S1"})
        values = encode_solution(model, sol)
        assert max_residual(model, values) <= 1e-9
        decoded, _ = decode_solution(model, values)
        assert decoded == sol
        assert decoded.hubs == frozenset()

    def test_objective_matches_approx_cost(self, toy_instance):
        model = build_linearized_model(toy_instance)
        sol = Solution(
            port_choice={("B1", "T1"): "S1", ("B2", "T1"): "S1"},
            hubs=frozenset({"B2"}),
            direct_fraction={("B1", "S1"): 0.25},
            hub_choice={("B1", "S1"): "B2"},
        )
        values = encode_solution(model, sol)
        expected = evaluate_cost(toy_instance, sol, "approx").total
        assert model.objective_value(values) == pytest.approx(expected, rel=1e-9)

    def test_bijection_on_random_solutions(self):
        instance = generate(seed=11, n_branches=4, n_origin_ports=2,
                            n_destinations=3, demand_density=0.7)
        model = build_linearized_model(instance)
        rng = random.Random(99)
        for _ in range(60):
            sol = random_feasible_solution(instance, rng)
            assert check_feasibility(instance, sol) == []
            values = encode_solution(model, sol)
            assert max_residual(model, values) <= 1e-9
            decoded, _ = decode_solution(model, values)
            assert decoded.approx_equal(sol), (sol, decoded)
            assert model.objective_value(values) == pytest.approx(
                evaluate_cost(instance, sol, "approx").total, rel=1e-6
            )

    def test_encode_rejects_infeasible(self, toy_instance):
        model = build_linearized_model(toy_instance)
        with pytest.raises(InfeasibleSolutionError):
            encode_solution(model, Solution(port_choice={("B1", "T1"): "S1"}))

    def test_decode_rejects_fractional_binary(self, toy_instance):
        model = build_linearized_model(toy_instance)
        values = encode_solution(
            model, Solution(port_choice={("B1", "T1"): "S1", ("B2", "T1"): "S1"})
        )
        values["x_B1"] = 0.4
        with pytest.raises(ModelDecodeError):
            decode_solution(model, values)

    def test_decode_rejects_constraint_violation(self, toy_instance):
        model = build_linearized_model(toy_instance)
        values = encode_solution(
            model, Solution(port_choice={("B1", "T1"): "S1", ("B2", "T1"): "S1"})
        )
        values["z_B1_T1_S1"] = 0.0  # breaks the port totality row
        with pytest.raises(ModelDecodeError):
            decode_solution(model, values)

    def test_decode_rejects_missing_variable(self, toy_instance):
        model = build_linearized_model(toy_instance)
        values = encode_solution(
            model, Solution(port_choice={("B1", "T1"): "S1", ("B2", "T1"): "S1"})
        )
        del values["x_B1"]
        with pytest.raises(ModelDecodeError):
            decode_solution(model, values)

    def test_decode_refuses_cost_above_objective(self):
        # Moving 3e-14 of the on-break feeder load from direct to hub keeps
        # every residual tiny, but the decoded feeder load lands just above
        # the break, where the evaluator prices it a whole step up.
        instance, sol = feeder_load_on_a_break()
        v = instance.demand[("B01", "T1")]
        model = build_linearized_model(instance)
        assert (1.0 - sol.fraction("B01", "S1")) * v == 8.123
        assert 8.123 in model.meta.breakpoints
        values = encode_solution(model, sol)
        solution, breakdown = decode_solution(model, values)
        assert solution.approx_equal(sol)
        assert breakdown == evaluate_cost(instance, solution, "approx")
        assert breakdown.total == pytest.approx(model.objective_value(values), rel=1e-12)

        values["vd_B01_S1"] -= 3e-14 * v
        values["vh_B01_S1_B02"] += 3e-14 * v
        assert max_residual(model, values) <= 1e-9
        with pytest.raises(ModelDecodeError, match="2201.48.*2177.84"):
            decode_solution(model, values)

    @pytest.mark.parametrize("name", ["vd_B04_S2", "x_B04"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_decode_refuses_non_finite_values(self, name, bad):
        # NaN passed every check before: max(0.0, nan) is 0.0 and
        # abs(nan) > tol is false.
        instance = generate(5, 4, 2, 1, 1.0, "consolidation_favorable")
        model = build_linearized_model(instance)
        values = encode_solution(model, solve_two_stage(instance).merged)
        values[name] = bad
        with pytest.raises(ModelDecodeError, match=f"{name} = .* not a finite number"):
            decode_solution(model, values)

    def test_decode_accepts_a_spare_container(self, toy_instance):
        # cap_ rows are <= rows, so one land container more than the load
        # needs is a feasible integral answer; its objective is a container
        # above the evaluator's cost, which prices the minimum.
        model = build_linearized_model(toy_instance)
        sol = Solution(port_choice={("B1", "T1"): "S1", ("B2", "T1"): "S1"})
        values = encode_solution(model, sol)
        values["nL_B1_S1"] += 1.0
        assert max_residual(model, values) <= 1e-9
        decoded, breakdown = decode_solution(model, values)
        assert decoded == sol
        assert breakdown == evaluate_cost(toy_instance, sol, "approx")
        assert model.objective_value(values) > breakdown.total + 1.0

    def test_values_text_round_trip(self, toy_instance):
        model = build_linearized_model(toy_instance)
        values = encode_solution(
            model, Solution(port_choice={("B1", "T1"): "S1", ("B2", "T1"): "S1"})
        )
        assert parse_values_text(format_values_text(values)) == values
