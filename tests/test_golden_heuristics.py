"""Two-stage and local-search answers pinned bit for bit.

``golden/heuristics.json`` holds, for seeded generator instances, the
merged two-stage solution, the local-search solution started from it, and
both solutions' exact and approximated totals, recorded from the
evaluator-per-candidate implementation that predates the arc price table.
Any change to pricing or search order that moves a single bit of an answer
fails here.  Re-record only when answers are meant to change:

    PYTHONPATH=src python tests/test_golden_heuristics.py --record
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

# (seed, branches, ports, destinations, profile); density 0.6 throughout.
CASES = [(seed, 8, 3, 4, PROFILES[seed % 3]) for seed in range(30)] + [
    (3, 16, 3, 4, "consolidation_favorable"),
]


def run_case(seed, branches, ports, dests, profile) -> dict:
    inst = generate(seed, branches, ports, dests, 0.6, profile)
    merged = solve_two_stage(inst).merged
    improved = local_search_improve(inst, merged)
    out = {"case": [seed, branches, ports, dests, profile]}
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden_heuristics.py --record")
    GOLDEN.write_text(
        json.dumps([run_case(*c) for c in CASES], indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN} ({len(CASES)} cases)")
