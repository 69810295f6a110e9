"""LP and MPS emission pinned byte for byte on generator instances.

``golden/milp_hashes.json`` holds the sha256 of ``emit_lp`` and
``emit_mps`` for seeded generator models of two sizes over all three
profiles, two of them restricted with ``MilpModel.fix_no_hubs`` (one at
the benchmark's 16x3x6 ``model`` shape).  The toy goldens in
``golden/toy_model.*`` show the full text of a 2-branch model; these
hashes cover models with every constraint family at realistic sizes.  Any
change to model order, naming or numeral formatting fails here.
Record cases added to ``CASES`` with

    PYTHONPATH=src python tests/test_golden_milp.py --record

which writes only the cases missing from the file, and exits non-zero,
naming each case, if a recorded hash has changed.  To re-record a case on
purpose, delete its entry from the file first.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import golden_record
import pytest

from hublocate import build_linearized_model, emit_lp, emit_mps, generate

GOLDEN = Path(__file__).parent / "golden" / "milp_hashes.json"

# (seed, branches, ports, destinations, profile, fix_no_hubs); density 0.6.
CASES = [
    (1, 8, 3, 4, "uniform", False),
    (2, 8, 3, 4, "consolidation_favorable", False),
    (3, 8, 3, 4, "nvocc_only_mix", False),
    (4, 16, 3, 6, "uniform", False),
    (5, 16, 3, 6, "consolidation_favorable", False),
    (6, 16, 3, 6, "nvocc_only_mix", False),
    (7, 8, 3, 4, "consolidation_favorable", True),
    (4, 16, 3, 6, "uniform", True),
]


def run_case(seed, branches, ports, dests, profile, fix_no_hubs) -> dict:
    model = build_linearized_model(generate(seed, branches, ports, dests, 0.6, profile))
    if fix_no_hubs:
        model.fix_no_hubs()
    return {
        "case": [seed, branches, ports, dests, profile, fix_no_hubs],
        "lp_sha256": hashlib.sha256(emit_lp(model).encode("utf-8")).hexdigest(),
        "mps_sha256": hashlib.sha256(emit_mps(model).encode("utf-8")).hexdigest(),
    }


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_emission_matches_golden(case):
    assert run_case(*case) == golden_record.recorded(GOLDEN)[case]


if __name__ == "__main__":
    golden_record.main(GOLDEN, CASES, run_case)
