"""Fuzzing of the instance and solution file formats through ``main()``.

Random bytes, byte splices of valid files and valid documents with one
node replaced or deleted go to ``validate`` and ``evaluate``.  Whatever
the input, the command ends with an exit code of the CLI contract and
without a traceback.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from hublocate.cli import main
from hublocate.network_model import instance_to_json
from hublocate.solution import Solution, solution_to_json

from conftest import make_toy_instance

INSTANCE = instance_to_json(make_toy_instance()).encode("utf-8")
SOLUTION = solution_to_json(Solution(
    port_choice={("B1", "T1"): "S1", ("B2", "T1"): "S1"},
    hubs=frozenset({"B2"}),
    direct_fraction={("B1", "S1"): 0.25},
    hub_choice={("B1", "S1"): "B2"},
)).encode("utf-8")

# Floats include NaN and the infinities, which json.dumps writes as tokens
# json.loads accepts; integers are unbounded.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def run_cli(argv: list) -> tuple[int, str]:
    """Exit code and stderr of one ``main()`` call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    return rc, err.getvalue()


def check_commands(instance: bytes, solution: bytes) -> list:
    """Runs validate and evaluate on the two files; returns the exit codes."""
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        inst = Path(tmp) / "inst.json"
        sol = Path(tmp) / "sol.json"
        inst.write_bytes(instance)
        sol.write_bytes(solution)
        for argv in (
            ["validate", str(inst)],
            ["evaluate", str(inst), str(sol)],
            ["evaluate", "--mode", "approx", "--format", "json", str(inst), str(sol)],
        ):
            rc, err = run_cli(argv)
            assert rc in (0, 1, 2, 3), (argv, rc)
            assert "Traceback" not in err, (argv, err)
            codes.append(rc)
    return codes


def mutate(data, doc) -> None:
    """Replace or delete one node of a parsed document, chosen by ``data``."""
    node = doc
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
        elif isinstance(node, dict) and data.draw(st.booleans()):
            del node[key]
            return
        else:
            node[key] = data.draw(json_values)
            return


def test_the_valid_files_pass():
    assert check_commands(INSTANCE, SOLUTION) == [0, 0, 0]


# Example counts keep this file near three seconds: each main() call
# builds the argument parser, which takes most of the time.
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["instance", "solution"]), st.binary(max_size=64))
def test_random_bytes(target, raw):
    files = {"instance": INSTANCE, "solution": SOLUTION, target: raw}
    check_commands(files["instance"], files["solution"])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["instance", "solution"]), st.data())
def test_spliced_bytes(target, data):
    files = {"instance": INSTANCE, "solution": SOLUTION}
    text = files[target]
    start = data.draw(st.integers(0, len(text)))
    stop = data.draw(st.integers(start, min(len(text), start + 8)))
    files[target] = text[:start] + data.draw(st.binary(max_size=8)) + text[stop:]
    check_commands(files["instance"], files["solution"])


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["instance", "solution"]), st.data())
def test_mutated_documents(target, data):
    files = {"instance": INSTANCE, "solution": SOLUTION}
    doc = json.loads(files[target])
    mutate(data, doc)
    files[target] = json.dumps(doc).encode("utf-8")
    check_commands(files["instance"], files["solution"])
