"""Decoded answers of the linearized model pinned bit for bit.

``golden/milp_decode.json`` holds, for seeded generator instances, what
``decode_solution`` makes of the ``encode_solution`` values of a random
feasible solution (``solgen.random_feasible_solution``): the decoded
solution, its approximated breakdown total and the model objective at the
encoded values, or the refusal message where decode refuses the values.
Any change to the builder, the encoder or the decoder that moves a bit of
an answer fails here.  Record cases added to ``CASES`` with

    PYTHONPATH=src python tests/test_golden_milp_decode.py --record

which writes only the cases missing from the file, and exits non-zero,
naming each case, if a recorded answer has changed.  To re-record a case
on purpose, delete its entry from the file first.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import golden_record
import pytest
from solgen import random_feasible_solution

from hublocate import build_linearized_model, decode_solution, encode_solution, generate
from hublocate.errors import ModelDecodeError
from hublocate.gen import PROFILES
from hublocate.solution import solution_to_json

GOLDEN = Path(__file__).parent / "golden" / "milp_decode.json"

# (seed, branches, ports, destinations, profile); density 0.6.  16x3x6 is
# the benchmark's model shape.
CASES = [(seed, 8, 3, 4, PROFILES[seed % 3]) for seed in range(6)] + [
    (seed, 16, 3, 6, PROFILES[seed % 3]) for seed in range(3)
]


def run_case(seed, branches, ports, dests, profile) -> dict:
    inst = generate(seed, branches, ports, dests, 0.6, profile)
    model = build_linearized_model(inst)
    values = encode_solution(model, random_feasible_solution(inst, random.Random(seed)))
    entry = {
        "case": [seed, branches, ports, dests, profile],
        "objective": model.objective_value(values),
    }
    try:
        solution, breakdown = decode_solution(model, values)
    except ModelDecodeError as exc:
        entry["refused"] = str(exc)
    else:
        entry["solution"] = json.loads(solution_to_json(solution))
        entry["total"] = breakdown.total
    return entry


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_decoded_answers_match_golden(case):
    assert run_case(*case) == golden_record.recorded(GOLDEN)[case]


if __name__ == "__main__":
    golden_record.main(GOLDEN, CASES, run_case)
