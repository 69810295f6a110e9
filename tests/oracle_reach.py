"""How far the exact oracle reaches: one line per instance of a fixed scan.

Runs ``enumerate_optimal`` at its default evaluation budget and hub budget
2 on 33 generator instances (seed 1, density 0.6, every profile) of the
shapes in ``SHAPES``, from 4x2x2 to 8x3x4, each under a deadline, and
prints per instance whether it was solved, refused (with the refusal) or
timed out, its ``evaluated`` count, the port vectors and hub sets it cut
whole (``vector_cuts``, ``hub_set_cuts``), its approximated total and the
CPU seconds it took.  A solved or refused line whose CPU time is at least
``NEAR_DEADLINE`` (80%) of the deadline ends in "near deadline": that
outcome depends on machine speed, so a slower run may time out there and
a faster one may finish where this one timed out.  Run from the repo root
with

    PYTHONPATH=src python tests/oracle_reach.py [--deadline SECONDS]

(default 60 s per instance).  Not a test module (pytest collects only
``test_*.py``).
"""

from __future__ import annotations

import argparse
import time

from hublocate import evaluate_cost, generate
from hublocate.errors import OracleLimitError, TimeBudgetError
from hublocate.exact_oracle import enumerate_optimal
from hublocate.gen import PROFILES

# (branches, ports, destinations), smallest first.
SHAPES = (
    (4, 2, 2), (5, 2, 2), (4, 3, 3), (5, 3, 2), (6, 2, 2), (7, 2, 2),
    (6, 3, 2), (8, 2, 2), (5, 4, 3), (7, 3, 3), (8, 3, 4),
)
SEED, DENSITY, HUB_BUDGET = 1, 0.6, 2
NEAR_DEADLINE = 0.80  # share of the deadline from which an outcome is marked


def reach(shape, profile, deadline_s: float) -> str:
    """One scan line: the instance, its outcome, `evaluated`, the vectors
    and hub sets cut whole, the approximated total and the CPU seconds;
    the outcome is marked when it came near the deadline."""
    inst = generate(SEED, *shape, DENSITY, profile)
    evaluated = vector_cuts = hub_set_cuts = total = "-"
    start = time.process_time()
    try:
        result = enumerate_optimal(
            inst, HUB_BUDGET, deadline=time.monotonic() + deadline_s
        )
    except OracleLimitError as exc:
        outcome = f"refused ({exc})"
    except TimeBudgetError:
        outcome = f"timed out ({deadline_s:g} s)"
    else:
        outcome = "solved"
        evaluated = str(result.evaluated)
        vector_cuts = str(result.stats.vector_cuts)
        hub_set_cuts = str(result.stats.hub_set_cuts)
        total = f"{evaluate_cost(inst, result.solution, 'approx').total:.2f}"
    cpu = time.process_time() - start
    if not outcome.startswith("timed out") and cpu >= NEAR_DEADLINE * deadline_s:
        outcome += ", near deadline"
    name = "x".join(map(str, shape))
    return (
        f"{name:7} {profile:24} {evaluated:>11} {vector_cuts:>11} {hub_set_cuts:>12}"
        f" {total:>10} {cpu:7.2f}  {outcome}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--deadline", type=float, default=60.0, metavar="SECONDS")
    args = parser.parse_args()
    print(
        f"{'shape':7} {'profile':24} {'evaluated':>11} {'vector_cuts':>11}"
        f" {'hub_set_cuts':>12} {'approx':>10} {'cpu s':>7}  outcome"
    )
    for shape in SHAPES:
        for profile in PROFILES:
            print(reach(shape, profile, args.deadline), flush=True)


if __name__ == "__main__":
    main()
