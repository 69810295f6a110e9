"""Command-line surface: exit codes, file outputs, format switches."""

from __future__ import annotations

import json
import random

import pytest
from solgen import random_feasible_solution

from hublocate import (
    Solution,
    build_linearized_model,
    encode_solution,
    generate,
    load_instance,
    solve_no_hubs,
    solve_two_stage,
)
from hublocate.cli import COMMANDS, build_parser, main
from hublocate.cost_model import COST_RTOL
from hublocate.gen import PROFILES
from hublocate.milp import format_values_text
from hublocate.network_model import save_instance
from hublocate.solution import CostBreakdown, evaluate_cost, load_solution, save_solution

from conftest import feeder_load_on_a_break, make_toy_instance


@pytest.fixture
def toy_file(tmp_path):
    path = tmp_path / "toy.json"
    save_instance(make_toy_instance(), path)
    return path


@pytest.fixture
def cons_file(tmp_path):
    rc = main([
        "gen", "--seed", "7", "--branches", "4", "--ports", "2", "--dests", "2",
        "--density", "0.6", "--profile", "consolidation_favorable",
        "-o", str(tmp_path / "cons.json"),
    ])
    assert rc == 0
    return tmp_path / "cons.json"


class TestValidateAndGen:
    def test_validate_ok(self, toy_file, capsys):
        assert main(["validate", str(toy_file)]) == 0
        assert "VALID" in capsys.readouterr().out

    def test_validate_reports_violations(self, tmp_path, toy_file, capsys):
        doc = json.loads(toy_file.read_text())
        doc["demand"][0]["volume"] = -3.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is False
        assert any(v["code"] == "NEGATIVE_DEMAND" for v in report["violations"])

    def test_gen_deterministic_output(self, tmp_path):
        args = ["gen", "--seed", "3", "--branches", "3", "--ports", "2",
                "--dests", "2", "--density", "0.5"]
        main(args + ["-o", str(tmp_path / "a.json")])
        main(args + ["-o", str(tmp_path / "b.json")])
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_missing_file_is_an_error(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 1

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--method", "warp-drive", "x", "-o", "y"])
        assert err.value.code == 2

    def test_calls_in_one_process_see_only_their_own_flags(self, toy_file, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        assert main(["solve", "--method", "no-hub", str(toy_file), "-o", str(sol)]) == 0
        capsys.readouterr()
        assert main([
            "evaluate", "--mode", "approx", "--format", "json", str(toy_file), str(sol)
        ]) == 0
        assert json.loads(capsys.readouterr().out)["mode"] == "approx"
        assert main(["evaluate", str(toy_file), str(sol)]) == 0
        assert capsys.readouterr().out.startswith("cost breakdown (exact mode):\n")


class TestParser:
    """``main`` builds only the parser of the subcommand its first argument
    names; that parser must read every command line like the full one."""

    ARGV = {
        "validate": ["validate", "inst.json", "--json"],
        "gen": ["gen", "--seed", "3", "--branches", "2", "--ports", "2", "--dests", "1",
                "--density", "0.5", "--profile", "nvocc_only_mix", "-o", "out.json"],
        "solve": ["solve", "--method", "oracle", "--hub-budget", "1", "--time-budget", "5",
                  "inst.json", "-o", "sol.json", "--json"],
        "build-milp": ["build-milp", "inst.json", "-o", "model.lp", "--no-hubs"],
        "decode": ["decode", "inst.json", "model.mps", "values.txt", "-o", "sol.json"],
        "evaluate": ["evaluate", "--mode", "approx", "--format", "csv", "inst.json", "sol.json"],
        "compare": ["compare", "inst.json", "a.json", "b.json", "--json"],
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_one_command_parses_like_all(self, command):
        argv = self.ARGV[command]
        assert build_parser(command).parse_args(argv) == build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv", [
        ["solve", "-h"],
        ["solve", "--method", "warp-drive", "inst.json", "-o", "sol.json"],
        ["solve", "--method", "oracle", "inst.json", "-o", "sol.json", "extra"],
        ["gen", "--seed", "1"],
        ["-h"],
        ["warp-drive"],
    ], ids=lambda argv: " ".join(argv))
    def test_help_and_usage_errors_print_the_same_text(self, argv, capsys):
        printed = []
        for parser in (build_parser(argv[0]), build_parser()):
            with pytest.raises(SystemExit) as err:
                parser.parse_args(argv)
            printed.append((err.value.code, capsys.readouterr()))
        assert printed[0] == printed[1]
        assert printed[0][1].out or printed[0][1].err


class TestSolve:
    def test_oracle_solve_then_evaluate_matches(self, cons_file, tmp_path, capsys):
        out = tmp_path / "sol.json"
        rc = main([
            "solve", "--method", "oracle", "--hub-budget", "4",
            str(cons_file), "-o", str(out), "--json",
        ])
        assert rc == 0
        solve_report = json.loads(capsys.readouterr().out)
        assert main([
            "evaluate", "--mode", "approx", "--format", "json",
            str(cons_file), str(out),
        ]) == 0
        eval_report = json.loads(capsys.readouterr().out)
        assert eval_report["total"] == pytest.approx(
            solve_report["cost_approx"]["total"], rel=1e-6
        )

    def test_two_stage_and_no_hub(self, cons_file, tmp_path):
        for method in ("two-stage", "no-hub", "local-search"):
            out = tmp_path / f"{method}.json"
            rc = main(["solve", "--method", method, str(cons_file), "-o", str(out)])
            assert rc == 0
            assert load_solution(out) is not None

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("profile", PROFILES)
    def test_start_file_matches_the_default_start(self, tmp_path, seed, profile):
        # The default start is the two-stage solution, so starting from its
        # saved file must write the same solution file.
        inst = tmp_path / "inst.json"
        save_instance(generate(seed, 6, 3, 3, 0.6, profile), inst)
        start, default, from_file = (tmp_path / f"{n}.json" for n in ("start", "a", "b"))
        assert main(["solve", "--method", "two-stage", str(inst), "-o", str(start)]) == 0
        assert main(["solve", "--method", "local-search", str(inst), "-o", str(default)]) == 0
        assert main([
            "solve", "--method", "local-search", "--start-file", str(start), str(inst),
            "-o", str(from_file),
        ]) == 0
        assert from_file.read_bytes() == default.read_bytes()

    def test_infeasible_start_file_exits_1(self, toy_file, tmp_path, capsys):
        start = tmp_path / "start.json"
        save_solution(Solution(port_choice={("B1", "T1"): "S1"}), start)  # (B2, T1) unassigned
        out = tmp_path / "out.json"
        assert main([
            "solve", "--method", "local-search", "--start-file", str(start), str(toy_file),
            "-o", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: solution is infeasible") and "Traceback" not in err
        assert not out.exists()

    def test_two_stage_time_budget_exits_3(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        save_instance(generate(3, 8, 3, 4, 0.6, "uniform"), inst)
        rc = main([
            "solve", "--method", "two-stage", "--time-budget", "1e-6",
            str(inst), "-o", str(tmp_path / "x.json"),
        ])
        assert rc == 3
        assert "time budget" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_time_budget_holds_inside_one_destination(self, tmp_path, capsys):
        # One destination: the budget must stop the hub-set search itself.
        inst = tmp_path / "inst.json"
        save_instance(generate(3, 24, 3, 1, 0.9, "consolidation_favorable"), inst)
        rc = main([
            "solve", "--method", "two-stage", "--time-budget", "0.05",
            str(inst), "-o", str(tmp_path / "x.json"),
        ])
        assert rc == 3
        assert "time budget" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_json_stats_repeat_exactly(self, cons_file, tmp_path, capsys):
        reports = []
        for _ in range(2):
            rc = main([
                "solve", "--method", "local-search", str(cons_file),
                "-o", str(tmp_path / "ls.json"), "--json",
            ])
            assert rc == 0
            reports.append(json.loads(capsys.readouterr().out)["stats"])
        assert reports[0] == reports[1]
        assert set(reports[0]) == {"two_stage", "local_search"}
        for counters in reports[0].values():
            assert set(counters) == {
                "full_evaluations", "delta_evaluations",
                "near_tie_fallbacks", "accepted_moves",
                "inert_hub_hits",
                "moves_tried", "moves_accepted", "bound_cuts",
            }
            assert counters["full_evaluations"] > 0
        ts, ls = reports[0]["two_stage"], reports[0]["local_search"]
        assert ts["inert_hub_hits"] > 0
        assert ts["moves_tried"] == ts["moves_accepted"] == {}
        assert set(ls["moves_tried"]) == {"hub_toggle", "port", "hub_choice", "fraction"}
        assert sum(ls["moves_accepted"].values()) == ls["accepted_moves"] > 0

    def test_oracle_json_stats_repeat_exactly(self, cons_file, tmp_path, capsys):
        reports = []
        for _ in range(2):
            rc = main([
                "solve", "--method", "oracle", str(cons_file),
                "-o", str(tmp_path / "oracle.json"), "--json",
            ])
            assert rc == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[0]["stats"] == reports[1]["stats"]
        counters = reports[0]["stats"]["oracle"]
        assert set(counters) == {
            "port_vectors_cut", "hub_sets_cut", "threshold_cuts", "incumbent_cuts",
            "solved_configurations", "component_solves", "bound_cuts", "hub_set_cuts",
            "vector_cuts",
        }
        assert reports[0]["evaluated_configurations"] == (
            counters["threshold_cuts"] + counters["incumbent_cuts"]
            + counters["solved_configurations"]
        )

    def test_oracle_refusal_exits_3(self, cons_file, tmp_path):
        rc = main([
            "solve", "--method", "oracle", "--budget", "5",
            str(cons_file), "-o", str(tmp_path / "x.json"),
        ])
        assert rc == 3

    @pytest.mark.parametrize("method", [
        ["--method", "no-hub"], ["--method", "local-search", "--start", "no-hub"],
    ])
    def test_budget_limits_no_hub_port_assignments(self, cons_file, tmp_path, capsys, method):
        rc = main([
            "solve", *method, "--budget", "1", str(cons_file), "-o", str(tmp_path / "x.json"),
        ])
        assert rc == 3
        assert "port assignments exceed the budget" in capsys.readouterr().err

    def test_compare_shows_improvement(self, cons_file, tmp_path, capsys):
        nohub = tmp_path / "nohub.json"
        oracle = tmp_path / "oracle.json"
        main(["solve", "--method", "no-hub", str(cons_file), "-o", str(nohub)])
        main(["solve", "--method", "oracle", "--hub-budget", "4",
              str(cons_file), "-o", str(oracle)])
        capsys.readouterr()
        rc = main([
            "compare", "--mode", "approx", "--json",
            str(cons_file), str(nohub), str(oracle),
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["improvement_percent"] > 0.0
        assert report["hub_volume_share_b_percent"] > 0.0
        assert report["hub_volume_share_a_percent"] == 0.0


class TestBadInput:
    @pytest.mark.parametrize("doc", [
        [1, 2],
        {"schema": "hublocate-solution-1",
         "port_choice": [{"branch": "B1", "origin": "S1"}]},
        {"schema": "hublocate-solution-1", "direct_fraction": "all"},
        {"schema": "hublocate-solution-1",
         "direct_fraction": [{"branch": "B1", "origin": "S1", "fraction": 1.5}]},
    ], ids=["list", "missing-destination", "section-not-list", "fraction-out-of-range"])
    def test_malformed_solution_file_exits_1(self, toy_file, tmp_path, capsys, doc):
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps(doc))
        assert main(["evaluate", str(toy_file), str(sol)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_duplicate_demand_record_exits_1(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        assert main(["gen", "--seed", "1", "--branches", "3", "--ports", "2", "--dests", "2",
                     "--density", "1.0", "-o", str(inst)]) == 0
        capsys.readouterr()
        doc = json.loads(inst.read_text())
        first = doc["demand"][0]
        doc["demand"].append({**first, "volume": 999.0})
        inst.write_text(json.dumps(doc))
        assert main(["validate", str(inst)]) == 1
        out = capsys.readouterr()
        assert "VALID" not in out.out
        assert f"duplicate record for ('{first['branch']}', '{first['destination']}')" in out.err
        assert "section 'demand'" in out.err

    def test_demand_record_without_its_branch_exits_1(self, toy_file, tmp_path, capsys):
        # With B2 renamed "None", a demand record that lost its branch
        # field must not be read as demand of branch "None".
        doc = json.loads(toy_file.read_text().replace('"B2"', '"None"'))
        rec = next(r for r in doc["demand"] if r["branch"] == "None")
        del rec["branch"]
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(doc))
        assert main(["validate", str(inst)]) == 1
        out = capsys.readouterr()
        assert "VALID" not in out.out
        assert out.err.startswith("error: ") and "Traceback" not in out.err
        assert "section 'demand'" in out.err

    def test_duplicate_port_choice_record_exits_1(self, toy_file, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        save_solution(Solution(port_choice={("B1", "T1"): "S1", ("B2", "T1"): "S1"}), sol)
        doc = json.loads(sol.read_text())
        doc["port_choice"].append({"branch": "B1", "destination": "T1", "origin": "S2"})
        sol.write_text(json.dumps(doc))
        assert main(["evaluate", str(toy_file), str(sol)]) == 1
        err = capsys.readouterr().err
        assert "duplicate record for ('B1', 'T1')" in err and "section 'port_choice'" in err

    def test_duplicate_hub_exits_1(self, toy_file, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        save_solution(Solution(port_choice={("B1", "T1"): "S1", ("B2", "T1"): "S1"}), sol)
        doc = json.loads(sol.read_text())
        doc["hubs"] = ["B2", "B2"]
        sol.write_text(json.dumps(doc))
        assert main(["evaluate", str(toy_file), str(sol)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "duplicate record for B2" in err and "section 'hubs'" in err

    def test_non_finite_numbers_exit_1(self, toy_file, tmp_path, capsys):
        doc = json.loads(toy_file.read_text())
        doc["setup_costs"]["B1"] = float("nan")
        doc["demand"][0]["volume"] = float("inf")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))  # writes the NaN and Infinity tokens
        assert "NaN" in bad.read_text() and "Infinity" in bad.read_text()
        for argv in (["validate", str(bad)],
                     ["solve", "--method", "two-stage", str(bad), "-o", str(tmp_path / "x.json")]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert "must be finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("code,edit", [
        ("EMPTY_NODE_SET", lambda d: d["nodes"].update(origin_ports=[])),
        ("INVALID_NODE_ID", lambda d: d["nodes"]["destination_ports"].append("9T")),
        ("BAD_TABLE", lambda d: d["land_cost_table"].update(distance_breaks=[1000.0, 100.0])),
        ("BAD_TABLE", lambda d: d["land_cost_table"].update(volume_breaks=[40.0, 10.0, 80.0])),
        ("BAD_TABLE", lambda d: d["land_cost_table"]["cost"].pop()),
        ("NEGATIVE_COST", lambda d: d["land_cost_table"]["cost"][0].__setitem__(0, -1.0)),
        ("NEGATIVE_COST", lambda d: d["setup_costs"].update(B1=-5.0)),
        ("UNKNOWN_NODE", lambda d: d["sea_rates"].append(
            {**d["sea_rates"][0], "origin": "S9"})),
        ("UNKNOWN_NODE", lambda d: d["setup_costs"].update(B9=5.0)),
        ("UNKNOWN_NODE", lambda d: d["distances"].append({"from": "B9", "km": 5.0, "to": "S1"})),
        ("BAD_CONTAINER_PARAMS", lambda d: d["parameters"].update(land_container_volume=0.0)),
        ("BAD_CONTAINER_PARAMS", lambda d: d["parameters"].update(dimensional_factor=0.0)),
        ("NEGATIVE_DISTANCE", lambda d: d["distances"][2].update(km=-5.0)),
    ], ids=[
        "empty-ports", "bad-id", "distance-breaks", "volume-breaks", "cost-shape",
        "negative-tariff", "negative-setup", "sea-rate-node", "cost-map-node", "distance-node",
        "container-volume", "dimensional-factor", "negative-distance",
    ])
    def test_each_violation_code_is_reported(self, toy_file, tmp_path, capsys, code, edit):
        doc = json.loads(toy_file.read_text())
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 1
        out = capsys.readouterr().out
        assert f"\n{code} " in "\n" + out and "INVALID" in out
        out_file = tmp_path / "x.json"
        assert main(["solve", "--method", "two-stage", str(bad), "-o", str(out_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: instance is invalid") and code in err
        assert "Traceback" not in err
        assert not out_file.exists()

    @pytest.mark.parametrize("argv", [
        ["evaluate", "BAD", "SOL"],
        ["compare", "BAD", "SOL", "SOL"],
        *(["solve", "--method", *method, "BAD", "-o", "OUT"] for method in (
            ["two-stage"], ["no-hub"], ["oracle"], ["local-search"],
            ["local-search", "--start", "no-hub"], ["local-search", "--start-file", "SOL"],
        )),
    ], ids=lambda argv: " ".join(a for a in argv if a not in ("BAD", "SOL", "OUT", "-o")))
    def test_invalid_instance_is_refused_before_pricing(self, toy_file, tmp_path, capsys, argv):
        # Without a (B1, S1) distance the pricing used to end in a KeyError;
        # evaluate and compare validate the instance, and so does every solver.
        doc = json.loads(toy_file.read_text())
        doc["distances"] = [d for d in doc["distances"] if (d["from"], d["to"]) != ("B1", "S1")]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        sol = tmp_path / "sol.json"
        save_solution(Solution(port_choice={("B1", "T1"): "S1", ("B2", "T1"): "S1"}), sol)
        out = tmp_path / "out.json"
        files = {"BAD": str(bad), "SOL": str(sol), "OUT": str(out)}
        assert main([files.get(a, a) for a in argv]) == 1
        err = capsys.readouterr().err
        assert "MISSING_DISTANCE" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["gen", "--branches", "0"],
        ["gen", "--ports", "0"],
        ["gen", "--dests", "0"],
        ["gen", "--density", "0"],
        ["gen", "--density", "1.5"],
        ["gen", "--density", "nan"],
        ["gen", "--volume-bands", "0"],
        ["solve", "--method", "oracle", "--hub-budget", "-1"],
        ["solve", "--method", "local-search", "--hub-budget", "-1"],
        ["solve", "--method", "two-stage", "--time-budget", "0"],
        ["solve", "--method", "two-stage", "--time-budget", "nan"],
        ["solve", "--method", "oracle", "--budget", "nan"],
        ["solve", "--method", "local-search", "--start", "no-hub", "--start-file", "s.json"],
        ["solve", "--method", "local-search", "--start-file", "s.json", "--start", "two-stage"],
    ], ids=lambda flags: " ".join(flags))
    def test_bad_flag_is_a_usage_error(self, toy_file, tmp_path, capsys, flags):
        # A repeated option keeps its last value, so the bad flag wins.
        command, *bad = flags
        valid = {
            "gen": ["--seed", "1", "--branches", "2", "--ports", "2", "--dests", "2",
                    "--density", "0.5"],
            "solve": [str(toy_file)],
        }[command]
        with pytest.raises(SystemExit) as err:
            main([command, *valid, *bad, "-o", str(tmp_path / "out.json")])
        assert err.value.code == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()


class TestUnreadableFiles:
    """Files that are no UTF-8 text, directories, and JSON nested too deeply
    to parse: exit 1 with an error line, no traceback and no output file."""

    @pytest.fixture
    def files(self, toy_file, tmp_path):
        instance = load_instance(toy_file)
        sol = Solution(port_choice={("B1", "T1"): "S1", ("B2", "T1"): "S1"})
        sol_file = tmp_path / "sol.json"
        save_solution(sol, sol_file)
        model = tmp_path / "toy.lp"
        assert main(["build-milp", str(toy_file), "-o", str(model)]) == 0
        values = tmp_path / "values.txt"
        values.write_text(format_values_text(encode_solution(build_linearized_model(instance), sol)))
        return {"instance": toy_file, "solution": sol_file, "model": model, "values": values}

    COMMANDS = {
        "validate": ["validate", "{instance}"],
        "evaluate": ["evaluate", "{instance}", "{solution}"],
        "decode": ["decode", "{instance}", "{model}", "{values}", "-o", "{out}"],
    }
    CASES = [
        ("validate", "instance"),
        ("evaluate", "instance"),
        ("evaluate", "solution"),
        ("decode", "instance"),
        ("decode", "model"),
        ("decode", "values"),
    ]

    def _run(self, files, tmp_path, command, replaced, capsys):
        paths = {**files, "out": tmp_path / "out.json"}
        paths[replaced] = tmp_path / "bad"
        argv = [arg.format(**{k: str(v) for k, v in paths.items()})
                for arg in self.COMMANDS[command]]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "out.json").exists()
        return err

    @pytest.mark.parametrize("command, replaced", CASES)
    def test_bytes_that_are_not_utf8(self, files, tmp_path, capsys, command, replaced):
        text = files[replaced].read_bytes()
        (tmp_path / "bad").write_bytes(text[:20] + b"\xff\xfe" + text[20:])
        assert "not UTF-8 text" in self._run(files, tmp_path, command, replaced, capsys)

    @pytest.mark.parametrize("command, replaced", CASES)
    def test_a_directory(self, files, tmp_path, capsys, command, replaced):
        (tmp_path / "bad").mkdir()
        self._run(files, tmp_path, command, replaced, capsys)

    @pytest.mark.parametrize("command, replaced", [
        case for case in CASES if case[1] in ("instance", "solution")
    ])
    def test_json_nested_too_deeply(self, files, tmp_path, capsys, command, replaced):
        (tmp_path / "bad").write_text("[" * 200_000 + "]" * 200_000)
        assert "nested too deeply" in self._run(files, tmp_path, command, replaced, capsys)

    def test_output_is_a_directory(self, tmp_path, capsys):
        out = tmp_path / "adir"
        out.mkdir()
        rc = main(["gen", "--seed", "1", "--branches", "2", "--ports", "2", "--dests", "2",
                   "--density", "0.5", "-o", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: ") and "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_decode_refuses_non_finite_values(self, tmp_path, capsys, value):
        instance = generate(5, 4, 2, 1, 1.0, "consolidation_favorable")
        inst = tmp_path / "inst.json"
        save_instance(instance, inst)
        values = encode_solution(build_linearized_model(instance), solve_two_stage(instance).merged)
        text = format_values_text(values).replace("x_B04 1\n", f"x_B04 {value}\n")
        assert f"x_B04 {value}\n" in text
        (tmp_path / "values.txt").write_text(text)
        assert main(["build-milp", str(inst), "-o", str(tmp_path / "m.lp")]) == 0
        out = tmp_path / "decoded.json"
        rc = main(["decode", str(inst), str(tmp_path / "m.lp"), str(tmp_path / "values.txt"),
                   "-o", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "x_B04" in err and "not a finite number" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        ("bogus_var 5\n", "values name 1 variable(s) the model lacks, first: bogus_var"),
        ("{first}", "line {line}: {name} given twice (first on line 1)"),
    ])
    def test_decode_refuses_values_that_name_other_variables(
        self, tmp_path, capsys, extra, message
    ):
        # Both decoded with exit 0 before: an extra name was ignored, and
        # a repeated line overwrote the first.
        instance = generate(1, 3, 2, 2, 1.0)
        inst = tmp_path / "inst.json"
        save_instance(instance, inst)
        values = encode_solution(build_linearized_model(instance), solve_two_stage(instance).merged)
        text = format_values_text(values)
        first = text.splitlines(keepends=True)[0]
        line = text.count("\n") + 1
        (tmp_path / "values.txt").write_text(text + extra.format(first=first))
        assert main(["build-milp", str(inst), "-o", str(tmp_path / "m.mps")]) == 0
        out = tmp_path / "decoded.json"
        rc = main(["decode", str(inst), str(tmp_path / "m.mps"), str(tmp_path / "values.txt"),
                   "-o", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert message.format(line=line, name=first.split()[0]) in err
        assert "Traceback" not in err
        assert not out.exists()


class TestMilpRoundTrip:
    def test_build_milp_byte_stable(self, toy_file, tmp_path):
        a = tmp_path / "a.lp"
        b = tmp_path / "b.lp"
        assert main(["build-milp", str(toy_file), "-o", str(a)]) == 0
        assert main(["build-milp", str(toy_file), "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_build_milp_rejects_unknown_extension(self, toy_file, tmp_path):
        assert main(["build-milp", str(toy_file), "-o", str(tmp_path / "m.txt")]) == 2

    def test_build_milp_checks_the_extension_before_loading(self, tmp_path, capsys):
        # The suffix is refused before the instance is read: a missing
        # instance would otherwise exit 1.
        out = tmp_path / "m.txt"
        rc = main(["build-milp", str(tmp_path / "missing.json"), "-o", str(out)])
        assert rc == 2
        assert "must end with .lp or .mps" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_no_hub_restriction_flag(self, toy_file, tmp_path):
        out = tmp_path / "restricted.lp"
        assert main(["build-milp", "--no-hubs", str(toy_file), "-o", str(out)]) == 0
        assert " x_B1 = 0" in out.read_text()

    def test_decode_round_trip(self, toy_file, tmp_path, capsys):
        model_path = tmp_path / "toy.lp"
        main(["build-milp", str(toy_file), "-o", str(model_path)])
        instance = load_instance(toy_file)
        model = build_linearized_model(instance)

        sol = Solution(port_choice={("B1", "T1"): "S1", ("B2", "T1"): "S1"})
        values_path = tmp_path / "values.txt"
        values_path.write_text(format_values_text(encode_solution(model, sol)))
        out = tmp_path / "decoded.json"
        rc = main([
            "decode", str(toy_file), str(model_path), str(values_path),
            "-o", str(out),
        ])
        assert rc == 0
        assert load_solution(out) == sol

    @pytest.mark.parametrize("no_hubs", [False, True])
    @pytest.mark.parametrize("suffix", [".lp", ".mps"])
    def test_one_branch_model_round_trip(self, tmp_path, capsys, suffix, no_hubs):
        # A lone branch has no hub to route via: its model has no y or vh column.
        instance = generate(1, 1, 2, 2, 1.0, "uniform")
        inst = tmp_path / "inst.json"
        save_instance(instance, inst)
        model_path = tmp_path / f"m{suffix}"
        flags = ["--no-hubs"] if no_hubs else []
        assert main(["build-milp", *flags, str(inst), "-o", str(model_path)]) == 0
        direct = solve_no_hubs(instance)
        values_path = tmp_path / "values.txt"
        values_path.write_text(
            format_values_text(encode_solution(build_linearized_model(instance), direct))
        )
        out = tmp_path / "decoded.json"
        argv = ["decode", str(inst), str(model_path), str(values_path), "-o", str(out)]
        assert main(argv) == 0
        assert load_solution(out).approx_equal(direct)

    @pytest.mark.parametrize("suffix", [".lp", ".mps"])
    def test_decode_reads_a_no_hub_model(self, tmp_path, capsys, suffix):
        instance = generate(3, 3, 2, 2, 0.9, "uniform")
        inst = tmp_path / "inst.json"
        save_instance(instance, inst)
        model_path = tmp_path / f"m{suffix}"
        assert main(["build-milp", "--no-hubs", str(inst), "-o", str(model_path)]) == 0
        direct = solve_no_hubs(instance)
        values = encode_solution(build_linearized_model(instance), direct)
        values_path = tmp_path / "values.txt"
        values_path.write_text(format_values_text(values))
        out = tmp_path / "decoded.json"
        argv = ["decode", str(inst), str(model_path), str(values_path), "-o", str(out)]
        assert main(argv) == 0
        assert load_solution(out).approx_equal(direct)

        # The restricted model fixes every hub variable at 0.
        values["x_B01"] = 1.0
        values_path.write_text(format_values_text(values))
        out.unlink()
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "x_B01 = 1.0 violates bounds [0.0, 0.0]" in err and "Traceback" not in err
        assert not out.exists()

    def test_decode_rejects_stale_model_file(self, toy_file, tmp_path):
        model_path = tmp_path / "toy.lp"
        main(["build-milp", str(toy_file), "-o", str(model_path)])
        model_path.write_text(model_path.read_text() + "\\ tampered\n")
        values_path = tmp_path / "values.txt"
        values_path.write_text("x_B1 0\n")
        rc = main([
            "decode", str(toy_file), str(model_path), str(values_path),
            "-o", str(tmp_path / "out.json"),
        ])
        assert rc == 1


class TestModelJob:
    """The model pipeline as one user runs it: validate, build both file
    formats, decode solver values, evaluate the decoded solution."""

    def test_commands_agree_on_the_cost(self, tmp_path, capsys):
        instance = generate(5, 5, 2, 3, 0.6, "consolidation_favorable")
        inst = tmp_path / "inst.json"
        save_instance(instance, inst)
        model = build_linearized_model(instance)
        values = encode_solution(model, random_feasible_solution(instance, random.Random(5)))
        objective = model.objective_value(values)
        values_path = tmp_path / "values.txt"
        values_path.write_text(format_values_text(values))
        decoded = tmp_path / "decoded.json"
        outputs = []
        for argv in (
            ["validate", str(inst)],
            ["build-milp", str(inst), "-o", str(tmp_path / "m.lp")],
            ["build-milp", str(inst), "-o", str(tmp_path / "m.mps")],
            ["decode", str(inst), str(tmp_path / "m.mps"), str(values_path),
             "-o", str(decoded)],
            ["evaluate", "--mode", "approx", "--format", "json", str(inst), str(decoded)],
        ):
            assert main(argv) == 0, argv
            outputs.append(capsys.readouterr().out)
        assert outputs[0].strip() == "VALID"
        total = json.loads(outputs[4])["total"]
        assert f"decoded objective (approximated): {total:.6f}" in outputs[3]
        assert abs(total - objective) <= COST_RTOL * max(1.0, abs(objective))

    def test_decode_refuses_cost_the_objective_lacks(self, tmp_path, capsys):
        # 3e-14 of the on-break feeder load moved from direct to hub:
        # decoded, the load sits just above the break.
        instance, sol = feeder_load_on_a_break()
        inst = tmp_path / "inst.json"
        save_instance(instance, inst)
        v = instance.demand[("B01", "T1")]
        values = encode_solution(build_linearized_model(instance), sol)
        values["vd_B01_S1"] -= 3e-14 * v
        values["vh_B01_S1_B02"] += 3e-14 * v
        values_path = tmp_path / "values.txt"
        values_path.write_text("".join(f"{k} {x!r}\n" for k, x in values.items()))
        assert main(["build-milp", str(inst), "-o", str(tmp_path / "m.mps")]) == 0
        out = tmp_path / "decoded.json"
        rc = main(["decode", str(inst), str(tmp_path / "m.mps"), str(values_path),
                   "-o", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "2201.48" in err and "2177.84" in err
        assert not out.exists()


    def test_decode_prints_the_cost_of_a_spare_container_answer(self, tmp_path, capsys):
        # One land container above the minimum: feasible for the model,
        # decoded, and priced at the evaluator's lower total.
        instance = generate(5, 5, 2, 3, 0.6, "consolidation_favorable")
        inst = tmp_path / "inst.json"
        save_instance(instance, inst)
        model = build_linearized_model(instance)
        sol = random_feasible_solution(instance, random.Random(5))
        values = encode_solution(model, sol)
        values[next(name for name in model.names if name.startswith("nL_"))] += 1.0
        values_path = tmp_path / "values.txt"
        values_path.write_text(format_values_text(values))
        assert main(["build-milp", str(inst), "-o", str(tmp_path / "m.lp")]) == 0
        out = tmp_path / "decoded.json"
        assert main(["decode", str(inst), str(tmp_path / "m.lp"), str(values_path),
                     "-o", str(out)]) == 0
        total = evaluate_cost(instance, load_solution(out), "approx").total
        assert f"decoded objective (approximated): {total:.6f}" in capsys.readouterr().out
        assert total == pytest.approx(evaluate_cost(instance, sol, "approx").total, rel=1e-12)
        assert model.objective_value(values) > total + 1.0


def renamed_instance(tmp_path, dests, renames, keep_rates=None):
    """A generated 2x2 instance at density 1.0 with its node ids renamed;
    ``keep_rates`` keeps only the listed (origin, destination) sea rates."""
    path = tmp_path / "inst.json"
    assert main(["gen", "--seed", "1", "--branches", "2", "--ports", "2",
                 "--dests", str(dests), "--density", "1.0", "-o", str(path)]) == 0
    text = path.read_text()
    for old, new in renames.items():
        text = text.replace(f'"{old}"', f'"{new}"')
    doc = json.loads(text)
    if keep_rates is not None:
        doc["sea_rates"] = [
            r for r in doc["sea_rates"] if (r["origin"], r["destination"]) in keep_rates
        ]
    path.write_text(json.dumps(doc))
    return path


class TestModelNames:
    """Node ids may hold "_", so two different id tuples can join into the
    same model name; the build must refuse that, never emit it."""

    @pytest.mark.parametrize("ext", ["lp", "mps"])
    def test_clashing_variable_names_exit_1(self, tmp_path, capsys, ext):
        # y_A_B_C_A is y for (A, B_C, hub A) and for (A_B, C, hub A).
        inst = renamed_instance(
            tmp_path, 1, {"B01": "A", "B02": "A_B", "S1": "B_C", "S2": "C"}
        )
        assert main(["validate", str(inst)]) == 0
        capsys.readouterr()
        out = tmp_path / f"m.{ext}"
        assert main(["build-milp", str(inst), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: duplicate variable name ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("ext", ["lp", "mps"])
    def test_clashing_row_names_exit_1(self, tmp_path, capsys, ext):
        # port_A_B_C is the port row of (A, B_C) and of (A_B, C).
        inst = renamed_instance(
            tmp_path, 2, {"B01": "A", "B02": "A_B", "T1": "B_C", "T2": "C"},
            keep_rates={("S1", "B_C"), ("S2", "C")},
        )
        assert main(["validate", str(inst)]) == 0
        capsys.readouterr()
        out = tmp_path / f"m.{ext}"
        assert main(["build-milp", str(inst), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: duplicate row name port_A_B_C")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("name,message", [
        ("x\nENDATA", "must be printable text"),
        ("x\r", "must be printable text"),
        ("a\tb", "must be printable text"),
        ("x\u2028y", "must be printable text"),
        (None, "must be a string"),
        (7, "must be a string"),
        (["x"], "must be a string"),
    ], ids=["newline", "return", "tab", "line-separator", "null", "number", "list"])
    def test_instance_name_must_be_printable_text(self, toy_file, tmp_path, capsys, name,
                                                  message):
        doc = json.loads(toy_file.read_text())
        doc["parameters"]["name"] = name
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(doc))
        out = tmp_path / "m.mps"
        for argv in (["validate", str(inst)], ["build-milp", str(inst), "-o", str(out)]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert "VALID" not in captured.out
            assert captured.err.startswith("error: ") and "Traceback" not in captured.err
            assert f"field 'name' {message}" in captured.err
            assert "section 'parameters'" in captured.err
        assert not out.exists()


class TestEvaluateFormats:
    def test_csv_output(self, toy_file, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        main(["solve", "--method", "no-hub", str(toy_file), "-o", str(sol)])
        capsys.readouterr()
        assert main([
            "evaluate", "--format", "csv", str(toy_file), str(sol),
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("term,value")
        assert "total," in out
        # A no-hub answer pays no set-up: a float zero, as every other term.
        assert "\nsetup,0.0\n" in out

    def test_table_output(self, toy_file, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        main(["solve", "--method", "no-hub", str(toy_file), "-o", str(sol)])
        capsys.readouterr()
        assert main(["evaluate", str(toy_file), str(sol)]) == 0
        assert "sea" in capsys.readouterr().out

    def test_compare_table_output(self, cons_file, tmp_path, capsys):
        nohub, oracle = tmp_path / "nohub.json", tmp_path / "oracle.json"
        main(["solve", "--method", "no-hub", str(cons_file), "-o", str(nohub)])
        main(["solve", "--method", "oracle", str(cons_file), "-o", str(oracle)])
        capsys.readouterr()
        argv = ["compare", str(cons_file), str(nohub), str(oracle)]
        assert main(argv + ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["term", "A", "B", "B", "-", "A"]
        rows = {line.split()[0]: [float(x) for x in line.split()[1:]] for line in lines[1:-2]}
        assert list(rows) == [*CostBreakdown.TERMS, "total"]
        for k, (a, b, d) in rows.items():
            assert a == pytest.approx(report["cost_a"][k], abs=1e-4)
            assert b == pytest.approx(report["cost_b"][k], abs=1e-4)
            assert d == pytest.approx(report["delta"][k], abs=1e-4)
        assert lines[-2] == f"improvement of B over A: {report['improvement_percent']:.2f}%"
        assert lines[-1] == (
            f"hub volume share: A {report['hub_volume_share_a_percent']:.2f}%, "
            f"B {report['hub_volume_share_b_percent']:.2f}%"
        )
