"""Model construction, size laws, LP/MPS emission, and encode/decode."""

from __future__ import annotations

import dataclasses
import hashlib
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
from hublocate.cost_model import COST_RTOL
from hublocate.errors import InfeasibleSolutionError, ModelDecodeError
from hublocate.exact_oracle import enumerate_optimal, solve_no_hubs
from hublocate.gen import PROFILES
from hublocate.milp import (
    BINARY,
    CONTINUOUS,
    GE,
    LE,
    constraint_counts,
    format_values_text,
    max_residual,
    parse_values_text,
    variable_counts,
)
from hublocate.solution import Solution

from conftest import feeder_load_on_a_break

GOLDEN = Path(__file__).parent / "golden"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def row_coeffs(model, i: int) -> dict:
    """Row ``i`` of the model as {variable name: coefficient}, in entry order."""
    lo, hi = model.row_start[i], model.row_start[i + 1]
    return {model.names[j]: c for j, c in zip(model.col[lo:hi], model.coef[lo:hi])}


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
    r = n_b * (n_b - 1 + n_s)
    n_vars = a + n_b + 2 * n_b * (n_b - 1) * n_s + n_b * n_s + r * (j + 1) + u + u_nv
    n_rows = p + 2 * n_b * (n_b - 1) * n_s + 2 * n_b * n_s + 2 * r + u
    return n_vars, n_rows


def expected_row_families(instance: Instance) -> dict:
    """Closed-form row count of each constraint family."""
    n_b = len(instance.nodes.branches)
    n_s = len(instance.nodes.origin_ports)
    r = n_b * (n_b - 1 + n_s)
    return {
        "port": len(instance.positive_pairs()),
        "onehub": n_b * n_s,
        "act": n_b * (n_b - 1) * n_s,
        "split": n_b * n_s,
        "bigm": n_b * (n_b - 1) * n_s,
        "cap": r,
        "step": r,
        "sea": len(instance.sea_rates),
    }


class TestModelSize:
    def test_spec_toy_family_counts(self):
        model = build_linearized_model(full_demand_instance(3, 2, 2))
        counts = variable_counts(model)
        assert counts["z"] == 12
        assert counts["x"] == 3
        assert counts["y"] == 12
        assert counts["vd"] + counts["vh"] == 18
        assert counts["nL"] == 12 and counts["uL0"] == 12 and counts["uLi"] == 24
        assert counts["nS"] == 4 and counts["uS"] == 4

    @pytest.mark.parametrize("dims", [(2, 1, 1), (3, 2, 2), (4, 2, 3)])
    def test_closed_forms(self, dims):
        instance = full_demand_instance(*dims)
        model = build_linearized_model(instance)
        n_vars, n_rows = expected_counts(instance, j=3)
        assert len(model.names) == n_vars
        assert len(model.row_names) == n_rows

    @pytest.mark.parametrize("dims", [(2, 1, 1), (3, 2, 2), (4, 2, 3), "16x3x6"])
    def test_row_family_counts(self, dims):
        # Equal dicts: the model emits no other row family.
        if dims == "16x3x6":
            instance = generate(4, 16, 3, 6, 0.6, "uniform")
        else:
            instance = full_demand_instance(*dims)
        model = build_linearized_model(instance)
        assert constraint_counts(model) == expected_row_families(instance)

    def test_linearization_count_independent_of_destinations(self):
        base = variable_counts(build_linearized_model(full_demand_instance(3, 2, 2)))
        doubled = variable_counts(build_linearized_model(full_demand_instance(3, 2, 4)))
        assert base["vh"] == doubled["vh"] == 3 * 2 * 2
        assert base["y"] == doubled["y"]
        assert doubled["z"] == 2 * base["z"]

    def test_quadratic_growth_in_branches(self):
        # vh grows as nB (nB - 1): 6 * 5 / (3 * 2) = 5.
        c3 = variable_counts(build_linearized_model(full_demand_instance(3, 2, 2)))
        c6 = variable_counts(build_linearized_model(full_demand_instance(6, 2, 2)))
        assert c6["vh"] == 5 * c3["vh"]


class TestColumnLayout:
    @pytest.mark.parametrize("fix_no_hubs", [False, True])
    @pytest.mark.parametrize("seed,n_b,n_s,n_t", [(0, 8, 3, 4), (4, 16, 3, 6)])
    def test_tables_index_every_column_once(self, seed, n_b, n_s, n_t, fix_no_hubs):
        """Each table entry indexes the column its family's name format
        names, the tables cover every column exactly once, and
        ``fix_no_hubs`` zeroes exactly the x, y and vh columns."""
        model = build_linearized_model(generate(seed, n_b, n_s, n_t, 0.6, PROFILES[seed % 3]))
        before = list(model.upper)
        if fix_no_hubs:
            model.fix_no_hubs()
        meta = model.meta
        named = {}  # column -> the name its table entry gives it
        hub_cols = set()

        def put(j, name, hub=False):
            assert j not in named, (name, named.get(j))
            named[j] = name
            if hub:
                hub_cols.add(j)

        for (b, t), zs in meta.z_cols.items():
            for s, j in zs.items():
                put(j, f"z_{b}_{t}_{s}")
        for b, j in meta.x_cols.items():
            put(j, f"x_{b}", hub=True)
        for (b, s), ys in meta.y_cols.items():
            for h, j in ys.items():
                put(j, f"y_{b}_{s}_{h}", hub=True)
        for (b, s), j in meta.vd_cols.items():
            put(j, f"vd_{b}_{s}")
        for (b, s), vhs in meta.vh_cols.items():
            for h, j in vhs.items():
                put(j, f"vh_{b}_{s}_{h}", hub=True)
        for (b, r), (nl, steps) in meta.land_cols.items():
            assert len(steps) == meta.step_count
            put(nl, f"nL_{b}_{r}")
            for i, j in enumerate(steps):
                put(j, f"uL{i}_{b}_{r}")
        for (s, t), (ns, us) in meta.sea_cols.items():
            put(ns, f"nS_{s}_{t}")
            if us is not None:
                put(us, f"uS_{s}_{t}")

        assert named == dict(enumerate(model.names))
        changed = {j for j, (a, b) in enumerate(zip(before, model.upper)) if a != b}
        assert changed == (hub_cols if fix_no_hubs else set())
        assert all(model.upper[j] == 0.0 for j in changed)

    @pytest.mark.parametrize("seed,n_b,n_s,n_t", [(0, 8, 3, 4), (4, 16, 3, 6)])
    def test_no_branch_routes_via_itself(self, seed, n_b, n_s, n_t):
        # C10 and C11 forbid a route via the branch itself, so the model
        # states none: no self hub, no self arc, and no column or row named
        # after one.
        instance = generate(seed, n_b, n_s, n_t, 0.6, PROFILES[seed % 3])
        model = build_linearized_model(instance)
        meta = model.meta
        for (b, _), ys in meta.y_cols.items():
            assert b not in ys
        for (b, _), vhs in meta.vh_cols.items():
            assert b not in vhs
        assert all(b != r for (b, r) in meta.land_cols)
        B, S = instance.nodes.branches, instance.nodes.origin_ports
        self_routes = {f"{family}_{b}_{s}_{b}" for b in B for s in S
                       for family in ("y", "vh", "act", "bigm")}
        self_routes |= {f"{family}_{b}_{b}" for b in B
                        for family in ("nL", "uL0", "uL1", "cap", "step")}
        assert self_routes.isdisjoint(model.names)
        assert self_routes.isdisjoint(model.row_names)

    def test_one_branch_has_no_hub_columns(self):
        # A lone branch has no other branch to route via.
        instance = generate(1, 1, 2, 2, 1.0, "uniform")
        model = build_linearized_model(instance)
        counts = variable_counts(model)
        assert "y" not in counts and "vh" not in counts
        assert all(ys == {} for ys in model.meta.y_cols.values())
        sol = solve_no_hubs(instance)
        values = encode_solution(model, sol)
        assert max_residual(model, values) <= 1e-9
        decoded, breakdown = decode_solution(model, values)
        assert decoded.approx_equal(sol)
        assert breakdown.total == pytest.approx(model.objective_value(values), rel=1e-12)


class TestCoefficients:
    def test_nvocc_only_relation_priced_at_penalty(self, toy_instance):
        inst = dataclasses.replace(
            toy_instance, sea_rates={("S1", "T1"): SeaRate(nvocc_per_m3=20.0)}
        )
        model = build_linearized_model(inst)
        assert model.obj[model.names.index("nS_S1_T1")] == inst.nvocc_penalty
        assert model.upper[model.names.index("uS_S1_T1")] == inst.nvocc_cap

    def test_fcl_only_relation_has_no_nvocc_variable(self, toy_instance):
        inst = dataclasses.replace(
            toy_instance, sea_rates={("S1", "T1"): SeaRate(fcl_per_container=500.0)}
        )
        model = build_linearized_model(inst)
        assert "uS_S1_T1" not in model.names
        assert "uS_S1_T1" not in row_coeffs(model, model.row_names.index("sea_S1_T1"))

    def test_big_m_is_per_branch_total_demand(self, toy_instance):
        model = build_linearized_model(toy_instance)
        bigm = row_coeffs(model, model.row_names.index("bigm_B1_S1_B2"))
        assert bigm["y_B1_S1_B2"] == -6.0

    def test_no_hub_fixing_zeroes_bounds(self, toy_instance):
        model = build_linearized_model(toy_instance)
        model.fix_no_hubs()
        upper = dict(zip(model.names, model.upper))
        assert upper["x_B1"] == upper["y_B1_S1_B2"] == upper["vh_B1_S1_B2"] == 0.0


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
            name: obj for name, obj in zip(model.names, model.obj) if obj != 0.0
        }
        assert set(parsed.constraints) == set(model.row_names)
        for i, name in enumerate(model.row_names):
            coeffs, sense, rhs = parsed.constraints[name]
            assert coeffs == row_coeffs(model, i)
            assert sense == model.senses[i]
            assert rhs == pytest.approx(model.rhs[i])
        kinds = dict(zip(model.names, model.kinds))
        assert parsed.binaries == {name for name, kind in kinds.items() if kind == "binary"}
        assert parsed.integers == {name for name, kind in kinds.items() if kind == "integer"}

    def test_emission_ignores_coefficient_insertion_order(self):
        # Both emitters fix the term order themselves: LP rows by variable
        # name, MPS column entries by row.  So a row's entry order never shows.
        model = build_linearized_model(generate(4, 16, 3, 6, 0.6, "uniform"))
        col, coef = list(model.col), list(model.coef)
        for lo, hi in zip(model.row_start, model.row_start[1:]):
            col[lo:hi] = reversed(col[lo:hi])
            coef[lo:hi] = reversed(coef[lo:hi])
        permuted = dataclasses.replace(model, col=col, coef=coef)
        assert col != model.col
        rows = range(len(model.row_names))
        assert [row_coeffs(permuted, i) for i in rows] == [row_coeffs(model, i) for i in rows]
        # Compared by hash: a failing == on the texts would diff 0.3 MB.
        for emit in (emit_lp, emit_mps):
            assert sha256(emit(permuted)) == sha256(emit(model)), emit.__name__

    def test_lp_rows_list_terms_in_sorted_name_order(self):
        # Unpadded branch names: the rows are built in node order (B1, B10,
        # B2, ...), but z_B10_T1_S1 sorts before z_B1_T1_S1 ("0" < "_").
        model = build_linearized_model(full_demand_instance(10, 2, 2))
        names = set(model.names)
        rows, row = {}, None
        text = emit_lp(model)
        body = text[text.index("Subject To\n"):text.index("Bounds\n")].splitlines()[1:]
        for line in body:
            head = line.split()[0]
            if head.endswith(":"):
                row = rows[head[:-1]] = []
            row.extend(tok for tok in line.split() if tok in names)
        assert list(rows) == model.row_names
        for i, name in enumerate(model.row_names):
            assert rows[name] == sorted(row_coeffs(model, i)), name
        built = list(row_coeffs(model, model.row_names.index("sea_S1_T1")))
        assert built.index("z_B1_T1_S1") < built.index("z_B10_T1_S1")
        sea = rows["sea_S1_T1"]
        assert sea.index("z_B10_T1_S1") < sea.index("z_B1_T1_S1")

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

    def test_land_steps_of_a_whole_and_a_last_band_rest(self, toy_instance):
        # B1's 160 m3 fills two containers with no rest (n); B2's 50 m3
        # leaves a rest in the last band (40, 80], priced as one more (n + 1).
        inst = dataclasses.replace(
            toy_instance, demand={("B1", "T1"): 160.0, ("B2", "T1"): 50.0}
        )
        model = build_linearized_model(inst)
        sol = Solution(port_choice={("B1", "T1"): "S1", ("B2", "T1"): "S1"})
        values = encode_solution(model, sol)
        assert (values["nL_B1_S1"], values["nL_B2_S1"]) == (2.0, 1.0)
        assert evaluate_cost(inst, sol, "approx").total == 3140.0
        assert model.objective_value(values) == 3140.0
        assert max_residual(model, values) == 0.0
        decoded, _ = decode_solution(model, values)
        assert decoded == sol

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

    @pytest.mark.parametrize("shape", ["toy", "16x3x6"])
    def test_csr_matrix_gives_row_activities(self, shape, toy_instance):
        # The arrays are a scipy CSR matrix as they stand: one call, no copy
        # of the model into another layout.
        sparse = pytest.importorskip("scipy.sparse")
        instance = toy_instance if shape == "toy" else generate(5, 16, 3, 6, 0.6, "uniform")
        model = build_linearized_model(instance)
        matrix = sparse.csr_array((model.coef, model.col, model.row_start))
        assert matrix.shape == (len(model.row_names), len(model.names))
        rng = random.Random(5)
        for _ in range(10):
            values = encode_solution(model, random_feasible_solution(instance, rng))
            activities = matrix @ [values[name] for name in model.names]
            for i, activity in enumerate(activities):
                lhs = sum(coef * values[name] for name, coef in row_coeffs(model, i).items())
                assert activity == pytest.approx(lhs, rel=1e-12, abs=1e-9), model.row_names[i]

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
        values["y_B1_S1_B2"] = 1.0  # breaks act_B1_S1_B2: sorts first, comes later
        rows = model.row_names
        assert rows.index("port_B1_T1") < rows.index("act_B1_S1_B2")
        with pytest.raises(ModelDecodeError) as err:
            decode_solution(model, values)
        # The first violated row in model order, with its residual.
        assert str(err.value) == "constraint port_B1_T1 violated by 1.0"

    def test_decode_rejects_missing_variable(self, toy_instance):
        model = build_linearized_model(toy_instance)
        values = encode_solution(
            model, Solution(port_choice={("B1", "T1"): "S1", ("B2", "T1"): "S1"})
        )
        for name in ("nS_S1_T1", "x_B1", "y_B1_S1_B2"):
            del values[name]
        with pytest.raises(ModelDecodeError) as err:
            decode_solution(model, values)
        assert str(err.value) == "values missing for 3 variable(s), first: x_B1"

    def test_decode_rejects_names_the_model_lacks(self, toy_instance):
        model = build_linearized_model(toy_instance)
        values = encode_solution(
            model, Solution(port_choice={("B1", "T1"): "S1", ("B2", "T1"): "S1"})
        )
        values["bogus_var"] = 5.0
        values["uS_S9_T1"] = 0.0
        with pytest.raises(ModelDecodeError) as err:
            decode_solution(model, values)
        assert str(err.value) == "values name 2 variable(s) the model lacks, first: bogus_var"
        # A missing name is reported first, even with extra names present.
        del values["x_B1"]
        with pytest.raises(ModelDecodeError, match="^values missing for 1 variable"):
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


def highs_objective(model) -> float:
    """The optimal objective of ``model`` solved by HiGHS through
    ``scipy.optimize.milp``."""
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    matrix = sparse.csr_array(
        (model.coef, model.col, model.row_start), shape=(len(model.rhs), len(model.names))
    )
    lower = [-math.inf if sense == LE else b for sense, b in zip(model.senses, model.rhs)]
    upper = [math.inf if sense == GE else b for sense, b in zip(model.senses, model.rhs)]
    col_upper = [
        u if u is not None else (1.0 if kind == BINARY else math.inf)
        for kind, u in zip(model.kinds, model.upper)
    ]
    result = optimize.milp(
        model.obj,
        constraints=optimize.LinearConstraint(matrix, lower, upper),
        integrality=[0 if kind == CONTINUOUS else 1 for kind in model.kinds],
        bounds=optimize.Bounds(0.0, col_upper),
        options={"disp": False, "time_limit": 60.0, "mip_rel_gap": 0.0},
    )
    assert result.status == 0, result.message
    return result.fun


class TestHighs:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_optimum_matches_the_oracle(self, profile):
        # Objectives only: decoding a HiGHS answer can land a load on a
        # volume break, which decode refuses.
        for seed in range(1, 6):
            inst = generate(seed, 2, 3, 2, 1.0, profile)
            model = build_linearized_model(inst)
            oracle = evaluate_cost(inst, enumerate_optimal(inst, 2).solution, "approx").total
            assert highs_objective(model) == pytest.approx(oracle, rel=COST_RTOL), seed
            model.fix_no_hubs()
            direct = evaluate_cost(inst, solve_no_hubs(inst), "approx").total
            assert highs_objective(model) == pytest.approx(direct, rel=COST_RTOL), seed


class TestParseValues:
    def test_skips_blank_whitespace_and_comment_lines(self):
        text = "\n   \n# a comment\n   # indented comment\nx_B1 1\n\t\n  y 0.5  \n"
        assert parse_values_text(text) == {"x_B1": 1.0, "y": 0.5}

    def test_tabs_and_crlf_line_endings(self):
        assert parse_values_text("a\t1\r\nb \t -2.5\r\n\r\n") == {"a": 1.0, "b": -2.5}

    def test_nan_and_inf_parse_as_floats(self):
        out = parse_values_text("a nan\nb inf\nc -inf\n")
        assert math.isnan(out["a"])
        assert out["b"] == math.inf and out["c"] == -math.inf

    @pytest.mark.parametrize("second", ["1", "2"])
    def test_name_given_twice_is_refused(self, second):
        # An equal repeat is refused as a conflicting one is: the first
        # repeat in the file, with the line of its first occurrence.
        text = f"a 1\n# c\nb 2\na {second}\nb 2\n"
        with pytest.raises(ModelDecodeError, match=r"^line 4: a given twice \(first on line 1\)$"):
            parse_values_text(text)

    def test_three_tokens_name_their_line(self):
        with pytest.raises(ModelDecodeError, match=r"^line 3: expected 'name value', got 'b 2 3'$"):
            parse_values_text("a 1\n\nb 2 3\n")

    def test_single_token_names_its_line(self):
        with pytest.raises(ModelDecodeError, match=r"^line 2: expected 'name value', got '  b'$"):
            parse_values_text("# head\n  b\n")

    def test_non_number_names_its_line(self):
        with pytest.raises(ModelDecodeError, match=r"^line 4: 'one' is not a number$"):
            parse_values_text("a 1\n# c\n\t\nb one\n")
