"""Instance validation rules and interchange-format round trips."""

from __future__ import annotations

import dataclasses
import json

import pytest

from hublocate import (
    Instance,
    NodeSets,
    build_linearized_model,
    enumerate_optimal,
    generate,
    load_instance,
    local_search_improve,
    save_instance,
    solve_no_hubs,
    solve_two_stage,
    validate_instance,
)
from hublocate.errors import InstanceFormatError, InvalidInstanceError
from hublocate.network_model import instance_from_doc, instance_to_json


def codes(report):
    return {v.code for v in report}


class TestValidate:
    def test_well_formed_toy_is_valid(self, toy_instance):
        assert validate_instance(toy_instance) == []

    def test_negative_demand(self, toy_instance):
        bad = dataclasses.replace(
            toy_instance, demand={**toy_instance.demand, ("B1", "T1"): -1.0}
        )
        assert "NEGATIVE_DEMAND" in codes(validate_instance(bad))

    def test_unreachable_destination(self, toy_instance):
        bad = dataclasses.replace(toy_instance, sea_rates={})
        assert "UNREACHABLE_DESTINATION" in codes(validate_instance(bad))

    def test_unknown_nodes_in_demand(self, toy_instance):
        bad = dataclasses.replace(
            toy_instance, demand={**toy_instance.demand, ("NOPE", "T1"): 1.0}
        )
        assert "UNKNOWN_NODE" in codes(validate_instance(bad))

    def test_branch_port_overlap_rejected(self, toy_instance):
        bad = dataclasses.replace(
            toy_instance,
            nodes=NodeSets(("B1", "B2", "S1"), ("S1",), ("T1",)),
            setup_cost={**toy_instance.setup_cost, "S1": 1.0},
            hub_consol_cost={**toy_instance.hub_consol_cost, "S1": 1.0},
        )
        assert "DUPLICATE_NODE" in codes(validate_instance(bad))

    def test_missing_distance(self, toy_instance):
        dist = dict(toy_instance.distance)
        del dist[("B1", "S1")]
        bad = dataclasses.replace(toy_instance, distance=dist)
        assert "MISSING_DISTANCE" in codes(validate_instance(bad))

    def test_distance_beyond_table(self, toy_instance):
        bad = dataclasses.replace(
            toy_instance, distance={**toy_instance.distance, ("B1", "S1"): 5000.0}
        )
        assert "DISTANCE_OUT_OF_RANGE" in codes(validate_instance(bad))

    def test_nonmonotone_table(self, toy_instance):
        table = dataclasses.replace(
            toy_instance.land_costs, cost=((20.0, 10.0, 80.0), (60.0, 144.0, 240.0))
        )
        bad = dataclasses.replace(toy_instance, land_costs=table)
        assert "NONMONOTONE_COST_TABLE" in codes(validate_instance(bad))

    def test_last_break_must_equal_container(self, toy_instance):
        bad = dataclasses.replace(toy_instance, land_container_volume=90.0)
        assert "BAD_TABLE" in codes(validate_instance(bad))

    def test_nvocc_cap_bounds(self, toy_instance):
        bad = dataclasses.replace(toy_instance, nvocc_cap=60.0)
        assert "BAD_CONTAINER_PARAMS" in codes(validate_instance(bad))

    def test_missing_setup_cost(self, toy_instance):
        bad = dataclasses.replace(toy_instance, setup_cost={"B1": 50.0})
        assert "MISSING_COST" in codes(validate_instance(bad))


SOLVER_INSTANCE = generate(1, 4, 2, 2, 0.6, "uniform")
SOLVER_START = solve_two_stage(SOLVER_INSTANCE).merged


class TestSolversValidate:
    """Every solver entry refuses an instance that fails validation before
    it prices anything: without the (B01, S2) distance pricing would end in
    a KeyError, and a negative set-up cost would break local search's bound."""

    @pytest.mark.parametrize("solve", [
        enumerate_optimal,
        solve_no_hubs,
        solve_two_stage,
        build_linearized_model,
        lambda inst: local_search_improve(inst, SOLVER_START),
    ], ids=["oracle", "no-hub", "two-stage", "milp", "local-search"])
    @pytest.mark.parametrize("edit,code", [
        ({"distance": {k: v for k, v in SOLVER_INSTANCE.distance.items() if k != ("B01", "S2")}},
         "MISSING_DISTANCE"),
        ({"setup_cost": {**SOLVER_INSTANCE.setup_cost, "B01": -5.0}}, "NEGATIVE_COST"),
    ], ids=["missing-distance", "negative-setup"])
    def test_invalid_instance_is_refused(self, solve, edit, code):
        bad = dataclasses.replace(SOLVER_INSTANCE, **edit)
        with pytest.raises(InvalidInstanceError) as err:
            solve(bad)
        assert code in codes(err.value.violations)


class TestRoundTrip:
    def test_save_load_identity_on_model(self, tmp_path, toy_instance):
        path = tmp_path / "toy.json"
        save_instance(toy_instance, path)
        again = load_instance(path)
        assert again == dataclasses.replace(toy_instance, name="toy")

    def test_canonical_file_is_byte_stable(self, tmp_path):
        inst = generate(seed=42, n_branches=3, n_origin_ports=2, n_destinations=2,
                        demand_density=0.8)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_instance(inst, p1)
        save_instance(load_instance(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_section_names_it(self, toy_instance):
        doc = json.loads(instance_to_json(toy_instance))
        del doc["sea_rates"]
        with pytest.raises(InstanceFormatError) as err:
            instance_from_doc(doc)
        assert "sea_rates" in str(err.value)

    def test_duplicate_branch_id_rejected(self, toy_instance):
        doc = json.loads(instance_to_json(toy_instance))
        doc["nodes"]["branches"] = ["B1", "B1", "B2"]
        with pytest.raises(InstanceFormatError) as err:
            instance_from_doc(doc)
        assert err.value.code == "DUPLICATE_NODE"

    def test_schema_version_mismatch(self, toy_instance):
        doc = json.loads(instance_to_json(toy_instance))
        doc["parameters"]["schema_version"] = "hublocate-0"
        with pytest.raises(InstanceFormatError) as err:
            instance_from_doc(doc)
        assert err.value.code == "SCHEMA_VERSION"

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "nodes": [,]\n}\n')
        with pytest.raises(InstanceFormatError) as err:
            load_instance(path)
        assert err.value.line == 2

    def test_bad_rate_reported_with_section(self, toy_instance):
        doc = json.loads(instance_to_json(toy_instance))
        doc["sea_rates"][0]["fcl_per_container"] = -5.0
        with pytest.raises(InstanceFormatError) as err:
            instance_from_doc(doc)
        assert err.value.code == "BAD_SEA_RATE"

    @pytest.mark.parametrize("section", ["demand", "distances", "sea_rates"])
    def test_duplicate_keyed_record_rejected(self, toy_instance, section):
        doc = json.loads(instance_to_json(toy_instance))
        doc[section].append(dict(doc[section][0]))
        with pytest.raises(InstanceFormatError) as err:
            instance_from_doc(doc)
        assert err.value.code == "DUPLICATE_RECORD"
        assert err.value.section == section

    KEYS = {"demand": "branch", "distances": "from", "sea_rates": "origin"}
    BAD_IDS = {"missing": ..., "null": None, "integer": 1, "list": ["B1"]}

    @pytest.mark.parametrize("section", KEYS)
    @pytest.mark.parametrize("bad", BAD_IDS)
    def test_record_without_a_string_id_is_a_bad_record(self, toy_instance, section, bad):
        doc = json.loads(instance_to_json(toy_instance))
        rec = doc[section][0]
        if self.BAD_IDS[bad] is ...:
            del rec[self.KEYS[section]]
        else:
            rec[self.KEYS[section]] = self.BAD_IDS[bad]
        with pytest.raises(InstanceFormatError) as err:
            instance_from_doc(doc)
        assert (err.value.code, err.value.section) == ("BAD_RECORD", section)

    @pytest.mark.parametrize("section", KEYS)
    def test_record_that_is_not_an_object_is_a_bad_record(self, toy_instance, section):
        doc = json.loads(instance_to_json(toy_instance))
        doc[section][0] = list(doc[section][0].values())
        with pytest.raises(InstanceFormatError) as err:
            instance_from_doc(doc)
        assert (err.value.code, err.value.section) == ("BAD_RECORD", section)

    OPTIONAL = ("sea_container_volume", "nvocc_cap", "dimensional_factor", "nvocc_penalty")

    def test_absent_optional_parameters_take_the_field_defaults(self, toy_instance):
        doc = json.loads(instance_to_json(toy_instance))
        for key in self.OPTIONAL:
            del doc["parameters"][key]
        inst = instance_from_doc(doc)
        defaults = {f.name: f.default for f in dataclasses.fields(Instance)}
        for key in self.OPTIONAL:
            assert getattr(inst, key) == defaults[key]

    def test_present_optional_parameters_keep_the_file_values(self, toy_instance):
        doc = json.loads(instance_to_json(toy_instance))
        values = dict(zip(self.OPTIONAL, (60.0, 35.0, 250.0, 1e7)))
        doc["parameters"].update(values)
        inst = instance_from_doc(doc)
        assert {key: getattr(inst, key) for key in self.OPTIONAL} == values

    def test_null_optional_parameter_is_a_type_error(self, toy_instance):
        doc = json.loads(instance_to_json(toy_instance))
        doc["parameters"]["nvocc_cap"] = None
        with pytest.raises(InstanceFormatError) as err:
            instance_from_doc(doc)
        assert err.value.code == "BAD_TYPE"
        assert err.value.section == "parameters"

    @pytest.mark.parametrize("name,code", [
        ("x\nENDATA", "CONTROL_CHARACTER"),
        ("\x00", "CONTROL_CHARACTER"),
        ("x\u2029", "CONTROL_CHARACTER"),
        (None, "BAD_TYPE"),
        (1.5, "BAD_TYPE"),
        ({"a": 1}, "BAD_TYPE"),
    ])
    def test_name_must_be_printable_text(self, toy_instance, name, code):
        doc = json.loads(instance_to_json(toy_instance))
        doc["parameters"]["name"] = name
        with pytest.raises(InstanceFormatError) as err:
            instance_from_doc(doc)
        assert err.value.code == code
        assert err.value.section == "parameters"

    def test_name_from_the_document_or_the_default(self, toy_instance):
        doc = json.loads(instance_to_json(toy_instance))
        doc["parameters"]["name"] = "Hub plan 2024 (draft) — v2"
        assert instance_from_doc(doc).name == "Hub plan 2024 (draft) — v2"
        del doc["parameters"]["name"]
        assert instance_from_doc(doc, name="stem").name == "stem"
        with pytest.raises(InstanceFormatError) as err:
            instance_from_doc(doc, name="a\nb")
        assert err.value.code == "CONTROL_CHARACTER"

    def test_node_sets_sorted_on_construction(self):
        ns = NodeSets(("B2", "B1"), ("S1",), ("T1",))
        assert ns.branches == ("B1", "B2")
