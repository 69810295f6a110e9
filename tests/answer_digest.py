"""Digests of the oracle's, the heuristics' and the model's answers on fixed
instance sets.

A refactor that must keep every answer bit for bit prints the same
lines before and after it.  Run from the repo root with

    PYTHONPATH=src python tests/answer_digest.py

It prints one sha256 over the oracle answers and one over the heuristic
answers, each with its instance count and CPU time.  Floats enter the
digest in hex, so a change in the last bit shows.  Two more sha256,
``oracle-answers`` and ``heuristic-answers``, cover the same answers
without the work counters, and two more lines sum those counters, one
over the oracle runs and one over the local searches.  So a change that
moves work but no answer changes the ``oracle`` or ``heuristics`` line
(and the work sums) while the matching answers line stays put; so does
``model-answers`` beside ``model`` for a change to the emitted text.
``heuristic-solutions`` drops the move counters too, so it stays put
when a change alters only which moves are tried.

* oracle: ``enumerate_optimal`` on 405 instances (2x3x2 density 1.0
  seeds 1-50 at hub budget 2; 3x3x2, 2x2x3 and 3x2x2 density 0.6 seeds
  1-25 at hub budget 2; 4x2x2 density 0.6 seeds 1-10 at hub budget 3;
  every profile): the solution, its approximated and exact totals,
  ``evaluated`` and every ``OracleStats`` field;
* oracle answers: the same solutions and totals alone;
* oracle work: ``evaluated`` and every ``OracleStats`` field, summed
  over the instances;
* heuristics: ``solve_two_stage`` then ``local_search_improve`` at hub
  budget 2 on 216 instances (8x3x4 density 0.6 seeds 100-159; 12x3x6
  density 0.6 and 8x3x4 density 0.9 seeds 1-5; 24x3x4 density 0.9 seeds
  3-4; every profile): both solutions, both solutions' approximated and
  exact totals, and both searches' ``SearchStats``;
* heuristic answers: the same solutions and totals with only the local
  search's ``moves_tried``, ``moves_accepted`` and ``accepted_moves``;
* heuristic solutions: the same solutions and totals alone, so a change
  that moves only which moves are tried keeps it;
* local-search work: its ``full_evaluations``, ``delta_evaluations``,
  ``near_tie_fallbacks`` and ``bound_cuts``, summed over the instances;
* model: ``build_linearized_model`` on 75 instances (8x3x4 density 0.6
  seeds 1-20 and 16x3x6 density 0.6 seeds 1-5, every profile): the LP
  and MPS texts of the full and the ``fix_no_hubs`` model, and what
  ``decode_solution`` makes of the ``encode_solution`` values of a
  random feasible solution (``solgen.random_feasible_solution``): the
  decoded solution, its approximated breakdown and the model objective
  at the values, or decode's refusal message;
* model answers: the same without the LP and MPS texts, so a change to
  the emitted text alone keeps it; the line counts decode's refusals.

Not a test module (pytest collects only ``test_*.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time

from solgen import random_feasible_solution

from hublocate import (
    build_linearized_model,
    decode_solution,
    emit_lp,
    emit_mps,
    encode_solution,
    evaluate_cost,
    generate,
    local_search_improve,
    solve_two_stage,
)
from hublocate.errors import ModelDecodeError
from hublocate.exact_oracle import enumerate_optimal
from hublocate.gen import PROFILES
from hublocate.heuristics import SearchStats
from hublocate.solution import solution_to_json

# (branches, ports, destinations, density, seeds, hub budget)
ORACLE_SHAPES = (
    (2, 3, 2, 1.0, range(1, 51), 2),
    (3, 3, 2, 0.6, range(1, 26), 2),
    (2, 2, 3, 0.6, range(1, 26), 2),
    (3, 2, 2, 0.6, range(1, 26), 2),
    (4, 2, 2, 0.6, range(1, 11), 3),
)
HEURISTIC_SHAPES = (
    (8, 3, 4, 0.6, range(100, 160)),
    (12, 3, 6, 0.6, range(1, 6)),
    (8, 3, 4, 0.9, range(1, 6)),
    (24, 3, 4, 0.9, range(3, 5)),
)
MODEL_SHAPES = (
    (8, 3, 4, 0.6, range(1, 21)),
    (16, 3, 6, 0.6, range(1, 6)),
)


def _hexed(value):
    """`value` with every float replaced by its hex string."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hexed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_hexed(item) for item in value]
    return value


def _answer(inst, solution) -> dict:
    return {
        "solution": json.loads(solution_to_json(solution)),
        "approx": evaluate_cost(inst, solution, "approx").total,
        "exact": evaluate_cost(inst, solution, "exact").total,
    }


def oracle_answers():
    for branches, ports, dests, density, seeds, hub_budget in ORACLE_SHAPES:
        for seed in seeds:
            for profile in PROFILES:
                inst = generate(seed, branches, ports, dests, density, profile)
                result = enumerate_optimal(inst, hub_budget)
                yield {
                    **_answer(inst, result.solution),
                    "evaluated": result.evaluated,
                    "stats": dataclasses.asdict(result.stats),
                }


def heuristic_answers():
    for branches, ports, dests, density, seeds in HEURISTIC_SHAPES:
        for seed in seeds:
            for profile in PROFILES:
                inst = generate(seed, branches, ports, dests, density, profile)
                two_stats, search_stats = SearchStats(), SearchStats()
                merged = solve_two_stage(inst, 2, stats=two_stats).merged
                improved = local_search_improve(inst, merged, stats=search_stats)
                yield {
                    "two_stage": _answer(inst, merged),
                    "local_search": _answer(inst, improved),
                    "two_stage_stats": dataclasses.asdict(two_stats),
                    "search_stats": dataclasses.asdict(search_stats),
                }


def model_answers():
    for branches, ports, dests, density, seeds in MODEL_SHAPES:
        for seed in seeds:
            for profile in PROFILES:
                inst = generate(seed, branches, ports, dests, density, profile)
                model = build_linearized_model(inst)
                restricted = build_linearized_model(inst)
                restricted.fix_no_hubs()
                values = encode_solution(
                    model, random_feasible_solution(inst, random.Random(seed))
                )
                answer = {
                    "texts": [
                        emit(m) for m in (model, restricted) for emit in (emit_lp, emit_mps)
                    ],
                    "objective": model.objective_value(values),
                }
                try:
                    solution, breakdown = decode_solution(model, values)
                except ModelDecodeError as exc:
                    answer["refused"] = str(exc)
                else:
                    answer["solution"] = json.loads(solution_to_json(solution))
                    answer["breakdown"] = dataclasses.asdict(breakdown)
                yield answer


# Local-search counters that are part of the answer (which moves were
# taken) and those that only measure work.
MOVE_COUNTERS = ("moves_tried", "moves_accepted", "accepted_moves")
WORK_COUNTERS = ("full_evaluations", "delta_evaluations", "near_tie_fallbacks", "bound_cuts")


def timed(answers) -> tuple[list, float]:
    """The answers as a list and the CPU seconds they took."""
    start = time.process_time()
    answers = list(answers)
    return answers, time.process_time() - start


def sha256_of(answers) -> str:
    """sha256 over the answers in order."""
    sha = hashlib.sha256()
    for answer in answers:
        sha.update(json.dumps(_hexed(answer), sort_keys=True).encode("utf-8"))
    return sha.hexdigest()


def main() -> None:
    oracle, cpu = timed(oracle_answers())
    print(f"oracle     {sha256_of(oracle)}  {len(oracle)} instances  {cpu:.2f} s CPU")
    answers_only = [
        {key: item for key, item in answer.items() if key not in ("evaluated", "stats")}
        for answer in oracle
    ]
    print(f"oracle-answers {sha256_of(answers_only)}  {len(answers_only)} instances")
    work = [f"evaluated={sum(answer['evaluated'] for answer in oracle)}"] + [
        f"{name}={sum(answer['stats'][name] for answer in oracle)}"
        for name in oracle[0]["stats"]
    ]
    print("oracle work  " + "  ".join(work))
    heuristic, cpu = timed(heuristic_answers())
    print(f"heuristics {sha256_of(heuristic)}  {len(heuristic)} instances  {cpu:.2f} s CPU")
    moves_only = [
        {
            "two_stage": answer["two_stage"],
            "local_search": answer["local_search"],
            **{name: answer["search_stats"][name] for name in MOVE_COUNTERS},
        }
        for answer in heuristic
    ]
    print(f"heuristic-answers {sha256_of(moves_only)}  {len(moves_only)} instances")
    solutions_only = [
        {"two_stage": answer["two_stage"], "local_search": answer["local_search"]}
        for answer in heuristic
    ]
    print(f"heuristic-solutions {sha256_of(solutions_only)}  {len(solutions_only)} instances")
    work = (
        f"{name}={sum(answer['search_stats'][name] for answer in heuristic)}"
        for name in WORK_COUNTERS
    )
    print("local-search work  " + "  ".join(work))
    model, cpu = timed(model_answers())
    print(f"model      {sha256_of(model)}  {len(model)} instances  {cpu:.2f} s CPU")
    decoded = [{key: item for key, item in answer.items() if key != "texts"} for answer in model]
    refusals = sum("refused" in answer for answer in decoded)
    print(f"model-answers {sha256_of(decoded)}  {len(decoded)} instances  {refusals} refusals")


if __name__ == "__main__":
    main()
