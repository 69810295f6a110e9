"""The ``--record`` path shared by the golden-file tests.

A golden file is a JSON list of entries, each naming its case in a
``"case"`` list.  ``record`` writes only the cases missing from the file,
and exits non-zero, naming each case, if a recorded answer has changed,
so a moved answer is never re-recorded silently.  To re-record a case on
purpose, delete its entry from the file first.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def recorded(path: Path) -> dict:
    """The file's entries by case tuple."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    return {tuple(entry["case"]): entry for entry in doc}


def record(path: Path, cases, run_case) -> int:
    """Append the missing cases; refuse if a recorded answer has moved."""
    known = recorded(path)
    added, moved = [], []
    for case in cases:
        entry = run_case(*case)
        if case not in known:
            added.append(entry)
        elif entry != known[case]:
            moved.append(case)
    if moved:
        for case in moved:
            print(f"recorded answer changed: {list(case)}", file=sys.stderr)
        print("nothing written; delete an entry to re-record it", file=sys.stderr)
        return 1
    doc = list(known.values()) + added
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path} ({len(added)} new of {len(cases)} cases)")
    return 0


def main(path: Path, cases, run_case) -> None:
    """Entry point of a golden test module run as a script."""
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {Path(sys.argv[0]).name} --record")
    sys.exit(record(path, cases, run_case))
