"""Batch command-line surface.

Thin adapters around the library modules; no business logic lives here.
Exit codes: 0 success, 1 validation or feasibility failure, 2 usage error
(argparse), 3 resource-limit or time-budget refusal.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict

from . import gen as gen_mod
from .errors import HublocateError, InvalidInstanceError, OracleLimitError, TimeBudgetError
from .exact_oracle import DEFAULT_HUB_BUDGET, MAX_EVALUATIONS, enumerate_optimal, solve_no_hubs
from .heuristics import SearchStats, local_search_improve, solve_two_stage
from .milp import (
    build_linearized_model,
    decode_solution,
    emit_lp,
    emit_mps,
    parse_values_text,
)
from .network_model import load_instance, read_text, save_instance, validate_instance
from .solution import (
    CostBreakdown,
    evaluate_cost,
    hub_volume_share,
    load_solution,
    save_solution,
)


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _breakdown_rows(b: CostBreakdown):
    return [(k, getattr(b, k)) for k in CostBreakdown.TERMS] + [("total", b.total)]


def _print_breakdown(b: CostBreakdown) -> None:
    width = max(len(k) for k, _ in _breakdown_rows(b))
    for k, v in _breakdown_rows(b):
        print(f"  {k:<{width}}  {v:14.4f}")


def _load_valid_instance(path):
    """The instance in a file; one that fails validation is an error, since
    the evaluator assumes every invariant (the solvers check their own)."""
    instance = load_instance(path)
    report = validate_instance(instance)
    if report:
        raise InvalidInstanceError(report)
    return instance


def cmd_validate(args) -> int:
    instance = load_instance(args.instance)
    report = validate_instance(instance)
    if args.json:
        _print_json({
            "valid": not report,
            "violations": [
                {"code": v.code, "subject": list(v.subject), "message": v.message}
                for v in report
            ],
        })
    elif report:
        for v in report:
            print(f"{v.code} {v.subject}: {v.message}")
        print(f"INVALID ({len(report)} violation(s))")
    else:
        print("VALID")
    return 1 if report else 0


def cmd_gen(args) -> int:
    instance = gen_mod.generate(
        seed=args.seed,
        n_branches=args.branches,
        n_origin_ports=args.ports,
        n_destinations=args.dests,
        demand_density=args.density,
        profile=args.profile,
        n_volume_bands=args.volume_bands,
    )
    save_instance(instance, args.output)
    relations = len(instance.positive_pairs())
    print(f"wrote {args.output} ({relations} relations)")
    return 0


def cmd_solve(args) -> int:
    instance = load_instance(args.instance)  # every solver validates it
    deadline = None if args.time_budget is None else time.monotonic() + args.time_budget

    extra = {}
    stats = {}
    # Local search improves the answer of its start method, or a saved one.
    local = args.method == "local-search"
    first = args.start if local else args.method
    if local and args.start_file:
        solution = load_solution(args.start_file)
    elif first == "oracle":
        result = enumerate_optimal(instance, args.hub_budget, args.budget, deadline=deadline)
        solution = result.solution
        extra = {"evaluated_configurations": result.evaluated}
        stats["oracle"] = result.stats
    elif first == "two-stage":
        stats["two_stage"] = SearchStats()
        result = solve_two_stage(
            instance, hub_budget=args.hub_budget, deadline=deadline,
            stats=stats["two_stage"],
        )
        solution = result.merged
        extra = {
            "violations": [
                {"constraint": v.constraint, "subject": list(v.subject), "message": v.message}
                for v in result.violations
            ],
            "iterations": result.iterations,
        }
    else:  # no-hub
        solution = solve_no_hubs(instance, args.budget, deadline=deadline)
    if local:
        extra = {}  # the start's merge report does not describe the answer
        stats["local_search"] = SearchStats()
        solution = local_search_improve(
            instance, solution, deadline=deadline, stats=stats["local_search"]
        )
    if stats:
        extra["stats"] = {name: asdict(counters) for name, counters in stats.items()}

    save_solution(solution, args.output)
    exact = evaluate_cost(instance, solution, "exact")
    approx = evaluate_cost(instance, solution, "approx")
    if args.json:
        _print_json({
            "method": args.method,
            "solution_file": str(args.output),
            "hubs": sorted(solution.hubs),
            "cost_exact": asdict(exact),
            "cost_approx": asdict(approx),
            "hub_volume_share": hub_volume_share(instance, solution),
            **extra,
        })
    else:
        print(f"method: {args.method}")
        print(f"hubs: {', '.join(sorted(solution.hubs)) or '(none)'}")
        print(f"hub volume share: {100.0 * hub_volume_share(instance, solution):.2f}%")
        for v in extra.get("violations", []):
            print(f"merge violation {v['constraint']} {v['subject']}: {v['message']}")
        print("exact cost:")
        _print_breakdown(exact)
        print("model (approximated) cost:")
        _print_breakdown(approx)
        print(f"wrote {args.output}")
    return 0


def cmd_build_milp(args) -> int:
    out = str(args.output)
    if not out.endswith((".lp", ".mps")):
        print(f"output must end with .lp or .mps, got {out}", file=sys.stderr)
        return 2
    instance = load_instance(args.instance)
    model = build_linearized_model(instance)
    if args.no_hubs:
        model.fix_no_hubs()
    text = emit_mps(model) if out.endswith(".mps") else emit_lp(model)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {out} ({len(model.names)} variables, {len(model.row_names)} constraints)")
    return 0


def cmd_decode(args) -> int:
    instance = load_instance(args.instance)
    model_path = str(args.model)
    on_disk = read_text(model_path)
    emit = emit_mps if model_path.endswith(".mps") else emit_lp
    # The full model first, then the one `build-milp --no-hubs` writes.
    model = build_linearized_model(instance)
    matches = emit(model) == on_disk
    if not matches:
        model.fix_no_hubs()
        matches = emit(model) == on_disk
    if not matches:
        print(
            f"{model_path} does not match the model built from {args.instance}; "
            "rebuild it with build-milp",
            file=sys.stderr,
        )
        return 1
    values = parse_values_text(read_text(args.values))
    solution, breakdown = decode_solution(model, values)
    save_solution(solution, args.output)
    print(f"decoded objective (approximated): {breakdown.total:.6f}")
    print(f"wrote {args.output}")
    return 0


def cmd_evaluate(args) -> int:
    instance = _load_valid_instance(args.instance)
    solution = load_solution(args.solution)
    breakdown = evaluate_cost(instance, solution, args.mode)
    if args.format == "json":
        _print_json({"mode": args.mode, **asdict(breakdown)})
    elif args.format == "csv":
        print("term,value")
        for k, v in _breakdown_rows(breakdown):
            print(f"{k},{v!r}")
    else:
        print(f"cost breakdown ({args.mode} mode):")
        _print_breakdown(breakdown)
    return 0


def cmd_compare(args) -> int:
    instance = _load_valid_instance(args.instance)
    sol_a = load_solution(args.solution_a)
    sol_b = load_solution(args.solution_b)
    cost_a = evaluate_cost(instance, sol_a, args.mode)
    cost_b = evaluate_cost(instance, sol_b, args.mode)
    improvement = (
        100.0 * (cost_a.total - cost_b.total) / cost_a.total if cost_a.total else 0.0
    )
    share_a = 100.0 * hub_volume_share(instance, sol_a)
    share_b = 100.0 * hub_volume_share(instance, sol_b)
    if args.json:
        _print_json({
            "mode": args.mode,
            "cost_a": asdict(cost_a),
            "cost_b": asdict(cost_b),
            "delta": {
                k: getattr(cost_b, k) - getattr(cost_a, k)
                for k in (*CostBreakdown.TERMS, "total")
            },
            "improvement_percent": improvement,
            "hub_volume_share_a_percent": share_a,
            "hub_volume_share_b_percent": share_b,
        })
    else:
        width = max(len(k) for k, _ in _breakdown_rows(cost_a))
        print(f"{'term':<{width}}  {'A':>14} {'B':>14} {'B - A':>14}")
        for (k, va), (_, vb) in zip(_breakdown_rows(cost_a), _breakdown_rows(cost_b)):
            print(f"{k:<{width}}  {va:14.4f} {vb:14.4f} {vb - va:14.4f}")
        print(f"improvement of B over A: {improvement:.2f}%")
        print(f"hub volume share: A {share_a:.2f}%, B {share_b:.2f}%")
    return 0


def _checked(convert, accept, requirement: str):
    """An argparse type: convert the text, then refuse values `accept` rejects
    (NaN fails every comparison, so it is refused wherever a bound is)."""

    def parse(text):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_positive_int = _checked(int, lambda n: n >= 1, "must be an integer >= 1")
_nonnegative_int = _checked(int, lambda n: n >= 0, "must be an integer >= 0")
_density = _checked(float, lambda x: 0.0 < x <= 1.0, "must be in (0, 1]")
_positive_number = _checked(float, lambda x: x > 0.0, "must be a number > 0")


def _validate_arguments(p) -> None:
    p.add_argument("instance")
    p.add_argument("--json", action="store_true")


def _gen_arguments(p) -> None:
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--branches", type=_positive_int, required=True)
    p.add_argument("--ports", type=_positive_int, required=True)
    p.add_argument("--dests", type=_positive_int, required=True)
    p.add_argument("--density", type=_density, required=True)
    p.add_argument("--profile", choices=gen_mod.PROFILES, default="uniform")
    p.add_argument("--volume-bands", type=_positive_int, default=gen_mod.DEFAULT_VOLUME_BANDS)
    p.add_argument("-o", "--output", required=True)


def _solve_arguments(p) -> None:
    p.add_argument("--method", choices=("two-stage", "no-hub", "local-search", "oracle"),
                   required=True)
    p.add_argument("--hub-budget", type=_nonnegative_int, default=DEFAULT_HUB_BUDGET)
    p.add_argument("--time-budget", type=_positive_number, default=None, metavar="SECONDS")
    p.add_argument("--budget", type=_positive_number, default=MAX_EVALUATIONS,
                   help="evaluation budget of the exact solvers: the oracle refuses when "
                        "its port assignments times hub sets, or the configurations it "
                        "counts after its all-direct pass, exceed it; the no-hub solver "
                        "(--method no-hub, --start no-hub) when its port assignments do")
    start = p.add_mutually_exclusive_group()
    start.add_argument("--start", choices=("two-stage", "no-hub"), default="two-stage",
                       help="starting point for local-search")
    start.add_argument("--start-file", default=None,
                       help="solution file to start local-search from")
    p.add_argument("instance")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--json", action="store_true")


def _build_milp_arguments(p) -> None:
    p.add_argument("instance")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--no-hubs", action="store_true",
                   help="fix all hub variables to zero (restricted model)")


def _decode_arguments(p) -> None:
    p.add_argument("instance")
    p.add_argument("model", help="the emitted .lp/.mps file (verified against the instance)")
    p.add_argument("values", help="plain 'name value' per-line solver output")
    p.add_argument("-o", "--output", required=True)


def _evaluate_arguments(p) -> None:
    p.add_argument("--mode", choices=("exact", "approx"), default="exact")
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.add_argument("instance")
    p.add_argument("solution")


def _compare_arguments(p) -> None:
    p.add_argument("--mode", choices=("exact", "approx"), default="exact")
    p.add_argument("instance")
    p.add_argument("solution_a")
    p.add_argument("solution_b")
    p.add_argument("--json", action="store_true")


# Subcommand -> (help, arguments, handler), in the order help lists them.
COMMANDS = {
    "validate": ("check an instance file against the model invariants",
                 _validate_arguments, cmd_validate),
    "gen": ("generate a random instance", _gen_arguments, cmd_gen),
    "solve": ("run one of the solvers on an instance", _solve_arguments, cmd_solve),
    "build-milp": ("emit the linearized model as .lp or .mps",
                   _build_milp_arguments, cmd_build_milp),
    "decode": ("decode solver output values into a solution file",
               _decode_arguments, cmd_decode),
    "evaluate": ("cost breakdown of a solution", _evaluate_arguments, cmd_evaluate),
    "compare": ("per-term comparison of two solutions", _compare_arguments, cmd_compare),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser.  When `command` names a subcommand, only that
    subcommand's parser is built, since a process parses one command line;
    otherwise all are, for help and for a missing or unknown command.  The
    usage line lists every subcommand either way."""
    parser = argparse.ArgumentParser(
        prog="hublocate",
        description="Hub-location and port-assignment toolkit for LCL ocean freight",
    )
    if command in COMMANDS:
        metavar = "{" + ",".join(COMMANDS) + "}"
        sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
        names = (command,)
    else:
        sub = parser.add_subparsers(dest="command", required=True)
        names = tuple(COMMANDS)
    for name in names:
        help_text, add_arguments, handler = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (OracleLimitError, TimeBudgetError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (HublocateError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
