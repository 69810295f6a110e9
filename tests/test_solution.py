"""Feasibility checking and the six-term evaluator, hand-checked on the toy."""

from __future__ import annotations

import dataclasses
import json

import pytest

from hublocate import Solution, check_feasibility, evaluate_cost, hub_volume_share
from hublocate.errors import InfeasibleSolutionError, InstanceFormatError, UnknownNodeError
from hublocate.pricing import solution_flows
from hublocate.solution import load_solution, save_solution

ALL_DIRECT = Solution(port_choice={("B1", "T1"): "S1", ("B2", "T1"): "S1"})


def single_shipment(toy_instance, volume=5.0):
    return dataclasses.replace(toy_instance, demand={("B1", "T1"): volume})


class TestFeasibility:
    def test_all_direct_is_feasible(self, toy_instance):
        assert check_feasibility(toy_instance, ALL_DIRECT) == []

    def test_missing_port_choice_is_c7(self, toy_instance):
        sol = Solution(port_choice={("B1", "T1"): "S1"})
        report = check_feasibility(toy_instance, sol)
        assert [v.constraint for v in report] == ["C7"]
        assert report[0].subject == ("B2", "T1")

    def test_fraction_without_hub_is_c9(self, toy_instance):
        sol = dataclasses.replace(ALL_DIRECT, direct_fraction={("B1", "S1"): 0.5})
        assert [v.constraint for v in check_feasibility(toy_instance, sol)] == ["C9"]

    def test_unopened_hub_is_c10(self, toy_instance):
        sol = dataclasses.replace(
            ALL_DIRECT,
            direct_fraction={("B1", "S1"): 0.5},
            hub_choice={("B1", "S1"): "B2"},
        )
        assert [v.constraint for v in check_feasibility(toy_instance, sol)] == ["C10"]

    def test_self_hub_is_c10(self, toy_instance):
        sol = dataclasses.replace(
            ALL_DIRECT,
            hubs=frozenset({"B1"}),
            direct_fraction={("B1", "S1"): 0.5},
            hub_choice={("B1", "S1"): "B1"},
        )
        constraints = {v.constraint for v in check_feasibility(toy_instance, sol)}
        assert "C10" in constraints

    def test_hub_routing_via_hub_is_c11(self, toy_instance):
        sol = dataclasses.replace(
            ALL_DIRECT,
            hubs=frozenset({"B1", "B2"}),
            direct_fraction={("B1", "S1"): 0.0},
            hub_choice={("B1", "S1"): "B2"},
        )
        constraints = [v.constraint for v in check_feasibility(toy_instance, sol)]
        assert "C11" in constraints

    def test_unknown_node_is_structural(self, toy_instance):
        sol = Solution(port_choice={("B1", "T1"): "S9", ("B2", "T1"): "S1"})
        with pytest.raises(UnknownNodeError):
            check_feasibility(toy_instance, sol)

    def test_unrated_port_choice_is_c7(self, toy_instance):
        inst = dataclasses.replace(
            toy_instance,
            nodes=dataclasses.replace(toy_instance.nodes, origin_ports=("S1", "S2")),
            port_consol_cost={"S1": 2.0, "S2": 2.0},
            distance={
                **toy_instance.distance, ("B1", "S2"): 100.0, ("B2", "S2"): 100.0,
            },
        )
        sol = Solution(port_choice={("B1", "T1"): "S2", ("B2", "T1"): "S1"})
        assert [v.constraint for v in check_feasibility(inst, sol)] == ["C7"]


class TestEvaluate:
    def test_zero_demand_all_terms_zero(self, toy_instance):
        inst = dataclasses.replace(toy_instance, demand={})
        breakdown = evaluate_cost(inst, Solution(port_choice={}), "exact")
        assert breakdown.total == 0.0

    def test_single_direct_shipment_hand_total(self, toy_instance):
        inst = single_shipment(toy_instance)
        sol = Solution(port_choice={("B1", "T1"): "S1"})
        b = evaluate_cost(inst, sol, "exact")
        # land 60 (far band) + port consolidation 10 + sea 100 (pure NVOCC)
        assert b.land_branch_to_port == pytest.approx(60.0)
        assert b.port_consolidation == pytest.approx(10.0)
        assert b.sea == pytest.approx(100.0)
        assert b.total == pytest.approx(170.0)

    def test_single_shipment_via_hub_hand_total(self, toy_instance):
        inst = single_shipment(toy_instance)
        sol = Solution(
            port_choice={("B1", "T1"): "S1"},
            hubs=frozenset({"B2"}),
            direct_fraction={("B1", "S1"): 0.0},
            hub_choice={("B1", "S1"): "B2"},
        )
        b = evaluate_cost(inst, sol, "exact")
        assert b.setup == pytest.approx(70.0)
        assert b.hub_consolidation == pytest.approx(6.0)
        assert b.land_branch_to_hub == pytest.approx(20.0)  # 30 km feeder, 5 m3
        assert b.land_branch_to_port == pytest.approx(60.0)  # hub-to-port leg
        assert b.total == pytest.approx(266.0)

    def test_all_direct_exact_and_approx(self, toy_instance):
        exact = evaluate_cost(toy_instance, ALL_DIRECT, "exact")
        assert exact.total == pytest.approx(472.0)
        approx = evaluate_cost(toy_instance, ALL_DIRECT, "approx")
        # B1's 6 m3 sits on the linear head: 6/8 * 60 = 45 instead of 60.
        assert approx.total == pytest.approx(457.0)

    def test_total_is_term_sum(self, toy_instance):
        b = evaluate_cost(toy_instance, ALL_DIRECT, "exact")
        assert b.total == pytest.approx(
            b.setup + b.hub_consolidation + b.port_consolidation
            + b.land_branch_to_port + b.land_branch_to_hub + b.sea
        )

    def test_unused_hub_costs_exactly_its_setup(self, toy_instance):
        with_hub = dataclasses.replace(ALL_DIRECT, hubs=frozenset({"B2"}))
        delta = (
            evaluate_cost(toy_instance, with_hub, "exact").total
            - evaluate_cost(toy_instance, ALL_DIRECT, "exact").total
        )
        assert delta == pytest.approx(toy_instance.setup_cost["B2"])

    def test_infeasible_rejected_with_report(self, toy_instance):
        sol = Solution(port_choice={("B1", "T1"): "S1"})
        with pytest.raises(InfeasibleSolutionError) as err:
            evaluate_cost(toy_instance, sol, "exact")
        assert err.value.report[0].constraint == "C7"

    def test_volume_conservation_per_port(self, toy_instance):
        sol = dataclasses.replace(
            ALL_DIRECT,
            hubs=frozenset({"B2"}),
            direct_fraction={("B1", "S1"): 0.25},
            hub_choice={("B1", "S1"): "B2"},
        )
        flows = solution_flows(toy_instance, sol.port_choice, sol.fraction, sol.hub_choice)
        for s in toy_instance.nodes.origin_ports:
            inbound = sum(v for (b, ss), v in flows.vols.items() if ss == s)
            shipped = sum(w for (ss, t), w in flows.sea_vol.items() if ss == s)
            assert abs(inbound - shipped) <= 1e-9

    def test_hub_volume_share(self, toy_instance):
        sol = dataclasses.replace(
            ALL_DIRECT,
            hubs=frozenset({"B2"}),
            direct_fraction={("B1", "S1"): 0.25},
            hub_choice={("B1", "S1"): "B2"},
        )
        # 4.5 of B1's 6 m3 rides the hub; total volume is 16.
        assert hub_volume_share(toy_instance, sol) == pytest.approx(4.5 / 16.0)


class TestSolutionIO:
    def test_round_trip(self, tmp_path, toy_instance):
        sol = dataclasses.replace(
            ALL_DIRECT,
            hubs=frozenset({"B2"}),
            direct_fraction={("B1", "S1"): 0.25},
            hub_choice={("B1", "S1"): "B2"},
        )
        path = tmp_path / "sol.json"
        save_solution(sol, path)
        assert load_solution(path) == sol

    @pytest.mark.parametrize("section, field, value", [
        ("port_choice", "origin", "S2"),
        ("direct_fraction", "fraction", 0.5),
        ("hub_choice", "hub", "B3"),
    ])
    def test_duplicate_keyed_record_rejected(self, tmp_path, section, field, value):
        sol = dataclasses.replace(
            ALL_DIRECT,
            hubs=frozenset({"B2"}),
            direct_fraction={("B1", "S1"): 0.25},
            hub_choice={("B1", "S1"): "B2"},
        )
        path = tmp_path / "sol.json"
        save_solution(sol, path)
        doc = json.loads(path.read_text())
        # Same key, other value: the last record used to win silently.
        doc[section].append({**doc[section][0], field: value})
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError) as err:
            load_solution(path)
        assert err.value.code == "DUPLICATE_RECORD"
        assert err.value.section == section

    def test_hub_listed_twice_rejected(self, tmp_path):
        path = tmp_path / "sol.json"
        save_solution(dataclasses.replace(ALL_DIRECT, hubs=frozenset({"B2"})), path)
        doc = json.loads(path.read_text())
        # A second "B2" used to load silently as the hub set {B2}.
        doc["hubs"].append("B2")
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError) as err:
            load_solution(path)
        assert err.value.code == "DUPLICATE_RECORD"
        assert err.value.section == "hubs"
