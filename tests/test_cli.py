"""Tests for the ``artifact`` command."""

import json

import pytest

from artifact import cartanweyl as cw
from artifact import cli
from artifact import ssorbits as ss
from artifact.exactfield import rat


def test_verify_case_prints_report(capsys):
    assert cli.main(["verify", "--case", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"]
    assert (report["blocks"], report["rows"]) == (2, 8)
    assert set(report["seconds"]) == set(report["sizes"]) == {"3.1", "3.2"}
    assert all(s >= 0 for s in report["seconds"].values())


def test_verify_failure_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(cw, "cartan_is_semisimple", lambda m: False)
    assert cli.main(["verify", "--case", "10"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["ok"]
    assert {f["check"] for f in report["failures"]} == {"semisimple"}
    assert len(report["failures"]) == report["rows"]


def test_unknown_family_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--case", "11"])
    assert exc.value.code == 2


def test_table_prints_every_row_as_linear_forms(capsys):
    assert cli.main(["table"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["blocks"] == 37
    assert len(report["rows"]) == 162
    assert report["rows"][0] == {
        "row": [1, 1, 1], "basis": "u", "w": 191, "parameters": ["l1", "l2", "l3", "l4"],
        "entries": ["l1", "l2", "l3", "l4"],
    }
    for entry in report["rows"]:
        i, j, k = entry["row"]
        blk = ss.block(i, j)
        assert (entry["basis"], entry["w"]) == (blk.basis_name, blk.row(k).w)
        values = range(2, 2 + len(entry["parameters"]))
        scope = {"i": 1j, **dict(zip(entry["parameters"], values))}
        want = blk.row(k).coordinates([rat(v) for v in values])
        got = [eval(text, {}, scope) for text in entry["entries"]]
        assert got == [complex(c.nums[0] / c.den, c.nums[4] / c.den) for c in want], entry


def test_table_case_prints_one_family(capsys):
    assert cli.main(["table", "--case", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["blocks"], len(report["rows"])) == (4, 18)
    assert report["rows"][-1]["entries"] == ["-i*(l1+l4)/2", "(l1-l4)/2", "(l1-l4)/2",
                                             "-i*(l1+l4)/2"]
