"""Tests for the ``artifact`` command."""

import io
import json

import pytest

from artifact import cartanweyl as cw
from artifact import cli
from artifact import ssorbits as ss
from artifact.exactfield import parse_cyc, rat


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


def _tensor_file(tmp_path, t):
    path = tmp_path / "tensor.json"
    path.write_text(t.to_json())
    return str(path)


def test_classify_prints_the_label(capsys, tmp_path):
    t = ss.row_tensor(2, 2, 2, ss.default_lambda(2, 2))
    assert cli.main(["classify", _tensor_file(tmp_path, t)]) == 0
    report = json.loads(capsys.readouterr().out)
    label = ss.classify_semisimple(t)
    # row (2, 2, 2) is in the real orbit of row (2, 2, 1), whose label it gets
    assert report == {"label": {"row": [2, 2, 1], "basis": "z", "m": 6,
                                "lams": ["1", "0,0,0,0,3,0,0,0", "0,0,0,0,5,0,0,0"]}}
    assert [label.i, label.j, label.k, label.m] == report["label"]["row"] + [6]


def test_classify_reads_standard_input(capsys, monkeypatch):
    t = ss.row_tensor(1, 1, 1, ss.default_lambda(1, 1))
    monkeypatch.setattr("sys.stdin", io.StringIO(t.to_json()))
    assert cli.main(["classify", "-"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["label"] == {"row": [1, 1, 1], "basis": "u", "m": 1,
                               "lams": ["1", "3", "5", "13"]}


def test_classify_explain_shows_the_candidates_and_the_winning_key(capsys, tmp_path):
    t = ss.row_tensor(2, 2, 2, ss.default_lambda(2, 2))
    assert cli.main(["classify", "--explain", _tensor_file(tmp_path, t)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [b["m"] for b in report["bases"]] == [m for m, _ in cw.containing_bases(t)]
    # family 2 vanishes on one pair of roots ±α
    for basis in report["bases"]:
        (alpha, minus) = basis["vanishing_roots"]
        assert alpha == [-c for c in minus]
    candidates = [c for b in report["bases"] for c in b["candidates"]]
    moves = {cw.weyl_index(w) for w in ss.real_weyl_group(6)}
    assert {c["move"] for c in candidates} <= moves
    # both rows of the related pair are candidates; the least accepted key
    # wins
    assert {(2, 2, 1), (2, 2, 2)} <= {tuple(c["row"]) for c in candidates}
    assert all(c["accepted"] == ss.block(*c["row"][:2]).reality.accepts(
        [parse_cyc(v) for v in c["lams"]]) for c in candidates)
    least = min((c for c in candidates if c["accepted"]), key=lambda c: c["key"])
    assert least["key"] == report["key"]
    assert {k: least[k] for k in report["label"]} == report["label"]


def test_classify_general_position_prints_the_payload(capsys, tmp_path):
    # a real point of family 10 on basis 1 that no row meets (w = 16)
    (lam,) = ss.default_lambda(10, 1)
    t = cw.from_basis_coords(1, [row[0] * lam for row in ss._row_matrix(10, 1, 16)])
    assert cli.main(["classify", _tensor_file(tmp_path, t)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["families"] == [10]
    assert set(payload["invariants"]) == {"H", "L12", "L13", "L14"}


def test_classify_rejects_a_state_that_is_not_real(capsys, tmp_path):
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps({"coeffs": {"0000": "0,0,0,0,1,0,0,0"}}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", str(path)])
    assert exc.value.code == 2
    assert "not a real state" in capsys.readouterr().err
