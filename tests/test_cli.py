"""Tests for the ``artifact`` command."""

import json

import pytest

from artifact import cartanweyl as cw
from artifact import cli


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
