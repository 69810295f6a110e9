"""Oracle and no-hub answers pinned bit for bit.

``golden/oracle.json`` holds, for seeded generator instances, the
``enumerate_optimal`` solution with its approximated and exact totals and
its count of evaluated configurations, and the ``solve_no_hubs``
solution.  Any change to the enumeration order, the candidate fractions
or the pricing that moves a single bit of an answer fails here.
Record cases added to ``CASES`` with

    PYTHONPATH=src python tests/test_golden_oracle.py --record

which writes only the cases missing from the file, and exits non-zero,
naming each case, if a recorded answer has changed.  To re-record a case
on purpose, delete its entry from the file first.
"""

from __future__ import annotations

import json
from pathlib import Path

import golden_record
import pytest

from hublocate import generate
from hublocate.exact_oracle import enumerate_optimal
from hublocate.gen import PROFILES
from hublocate.heuristics import solve_no_hubs
from hublocate.solution import evaluate_cost, solution_to_json

GOLDEN = Path(__file__).parent / "golden" / "oracle.json"

# (seed, branches, ports, destinations, density, profile, hub_budget).
# The 2x3x2 cases are the benchmark's oracle shape; the larger ones reach
# hub sets of three and four members and fractional direct shares, and
# 4x2x2 seeds 1 and 5 solve coupled components of four and five shares.
# The 6x2x2 cases are test_oracle's cross-solver instances, at the hub
# budget that test runs them at.
CASES = (
    [(seed, 2, 3, 2, 1.0, PROFILES[seed % 3], 2) for seed in range(30)]
    + [(seed, 4, 2, 2, 0.6, PROFILES[seed % 3], 4) for seed in (1, 5, 7, 10, 12, 13, 15)]
    + [(seed, 3, 3, 2, 0.6, PROFILES[seed % 3], 2) for seed in (5, 10)]
    + [(seed, 6, 2, 2, 0.6, profile, 2) for seed in (1, 2, 3) for profile in PROFILES]
)


def run_case(seed, branches, ports, dests, density, profile, hub_budget) -> dict:
    inst = generate(seed, branches, ports, dests, density, profile)
    result = enumerate_optimal(inst, hub_budget)
    return {
        "case": [seed, branches, ports, dests, density, profile, hub_budget],
        "oracle": {
            "solution": json.loads(solution_to_json(result.solution)),
            "approx": evaluate_cost(inst, result.solution, "approx").total,
            "exact": evaluate_cost(inst, result.solution, "exact").total,
            "evaluated": result.evaluated,
        },
        "no_hub": json.loads(solution_to_json(solve_no_hubs(inst))),
    }


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_answers_match_golden(case):
    assert run_case(*case) == golden_record.recorded(GOLDEN)[case]


if __name__ == "__main__":
    golden_record.main(GOLDEN, CASES, run_case)
