"""hublocate end-to-end benchmark.

    python3 perfbench/run.py --workload heuristic --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the benchmark imports hublocate from
``src/`` and writes only under ``.perfbench/``.  One process runs one
workload as a closed loop, one job after another.  With ``--trace 0`` it
times jobs for ``--seconds`` (and at least the workload's minimum job
count) and reports the end-to-end metrics; with ``--trace 1`` it runs a
fixed set of jobs once untraced and once traced and reports the per-layer
metrics.  Every job's outputs are checked.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  ``--workload all`` runs each workload in its own process.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_source() -> None:
    """Import hublocate from the checkout's src/, or exit with an error."""
    if not (SRC / "hublocate" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hublocate sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    worst = 0
    for name in ("heuristic", "oracle", "model"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("heuristic", "oracle", "model", "all")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_source()
    if args.workload == "all":
        return run_all(args)
    import harness

    run = harness.bench(args.workload, args.seed, args.seconds, bool(args.trace))
    harness.report(args.workload, args.seed, bool(args.trace), run)
    print(json.dumps(run.summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
