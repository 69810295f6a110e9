"""Two-stage and local-search answers pinned bit for bit.

``golden/heuristics.json`` holds, for seeded generator instances, the
merged two-stage solution, the local-search solution started from it, and
both solutions' exact and approximated totals, recorded from the
evaluator-per-candidate implementation that predates the arc price table.
Any change to pricing or search order that moves a single bit of an answer
fails here.  Record cases added to ``CASES`` with

    PYTHONPATH=src python tests/test_golden_heuristics.py --record

which writes only the cases missing from the file, and exits non-zero,
naming each case, if a recorded answer has changed.  To re-record a case
on purpose, delete its entry from the file first.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from hublocate import evaluate_cost, generate, local_search_improve, solve_two_stage
from hublocate.gen import PROFILES
from hublocate.solution import solution_to_json

GOLDEN = Path(__file__).parent / "golden" / "heuristics.json"

# (seed, branches, ports, destinations, profile[, density[, hub budget]]);
# density 0.6 and hub budget 2 unless given.  The density-0.9 cases are the
# ones where the two-stage caches answer most trials; the 12x3x6 cases are
# the shape where the inert-hub reuse skips the most routing; the budget-3
# cases read three-hub trials off two-hub ones, and the 12x3x6 one answers
# differently than at budget 2.
CASES = [(seed, 8, 3, 4, PROFILES[seed % 3]) for seed in range(30)] + [
    (3, 16, 3, 4, "consolidation_favorable"),
    (1, 8, 3, 4, "uniform", 0.9),
    (5, 8, 3, 4, "uniform", 0.9),
    (2, 8, 3, 4, "nvocc_only_mix", 0.9),
    (3, 24, 3, 4, "consolidation_favorable", 0.9),
    (4, 12, 3, 6, "consolidation_favorable"),
    (7, 12, 3, 6, "uniform"),
    (2, 12, 3, 6, "consolidation_favorable", 0.9, 3),
    (5, 8, 3, 4, "uniform", 0.9, 3),
]


def run_case(seed, branches, ports, dests, profile, density=0.6, hub_budget=2) -> dict:
    inst = generate(seed, branches, ports, dests, density, profile)
    merged = solve_two_stage(inst, hub_budget).merged
    improved = local_search_improve(inst, merged)
    case = [seed, branches, ports, dests, profile]
    if density != 0.6 or hub_budget != 2:
        case.append(density)
    if hub_budget != 2:
        case.append(hub_budget)
    out = {"case": case}
    for label, sol in (("two_stage", merged), ("local_search", improved)):
        out[label] = {
            "solution": json.loads(solution_to_json(sol)),
            "exact": evaluate_cost(inst, sol, "exact").total,
            "approx": evaluate_cost(inst, sol, "approx").total,
        }
    return out


def _recorded() -> dict:
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {tuple(entry["case"]): entry for entry in doc}


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_answers_match_golden(case):
    assert run_case(*case) == _recorded()[case]


def record() -> int:
    """Append the missing cases; refuse if a recorded answer has moved."""
    recorded = _recorded()
    added, moved = [], []
    for case in CASES:
        entry = run_case(*case)
        if case not in recorded:
            added.append(entry)
        elif entry != recorded[case]:
            moved.append(case)
    if moved:
        for case in moved:
            print(f"recorded answer changed: {list(case)}", file=sys.stderr)
        print("nothing written; delete an entry to re-record it", file=sys.stderr)
        return 1
    doc = list(recorded.values()) + added
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(added)} new of {len(CASES)} cases)")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden_heuristics.py --record")
    sys.exit(record())
