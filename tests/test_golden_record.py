"""The shared golden ``--record`` path writes only missing cases and
refuses to move a recorded answer."""

from __future__ import annotations

import json

import golden_record
import test_golden_milp

FAKE_CASES = [(1,), (2,), (3,)]


def fake_case(n) -> dict:
    return {"case": [n], "value": 2 * n}


def test_writes_only_missing_cases(tmp_path, capsys):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps([fake_case(2)]), encoding="utf-8")
    assert golden_record.record(path, FAKE_CASES, fake_case) == 0
    assert json.loads(path.read_text(encoding="utf-8")) == [fake_case(n) for n in (2, 1, 3)]
    assert "2 new of 3 cases" in capsys.readouterr().out


def test_changed_answer_refused_and_nothing_written(tmp_path, capsys):
    # A copy of the real MILP golden file with one hash altered: the record
    # run names that case, exits non-zero and leaves the file as it was.
    path = tmp_path / "milp_hashes.json"
    doc = json.loads(test_golden_milp.GOLDEN.read_text(encoding="utf-8"))
    doc[0]["lp_sha256"] = "0" * 64
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    path.write_text(text, encoding="utf-8")
    altered = tuple(doc[0]["case"])
    assert golden_record.record(path, [altered], test_golden_milp.run_case) == 1
    err = capsys.readouterr().err
    assert f"recorded answer changed: {list(altered)}" in err
    assert "nothing written" in err
    assert path.read_text(encoding="utf-8") == text
