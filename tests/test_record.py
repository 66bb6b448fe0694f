"""The measurement harness ``tools/record.py``: its case lists, its solve
counter and its diff, without running a solve."""

import importlib.util
import json
from pathlib import Path

import pytest

from renyicq.centers import CenterProblem

RECORD = Path(__file__).resolve().parents[1] / "tools" / "record.py"


@pytest.fixture(scope="module")
def record():
    spec = importlib.util.spec_from_file_location("record", RECORD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, count", [("robust", 765), ("small", 225), ("curves", 4),
                                         ("bounds", 8), ("radii", 88), ("verify", 24)])
def test_case_counts(record, name, count):
    keys = [tuple(case) for _, case in record.cases(name)]
    assert len(keys) == len(set(keys)) == count


def test_counting_restores_solve_after_a_raise(record):
    solve = CenterProblem.solve
    with pytest.raises(RuntimeError):
        with record.counting() as tally:
            assert CenterProblem.solve is not solve
            raise RuntimeError("inside the block")
    assert CenterProblem.solve is solve
    assert tally == {"solves": 0, "sweeps": 0}


def _rec(case, sweeps, value, flag=None):
    return {"set": "radii", "case": case, "group": case[0], "solves": 1, "sweeps": sweeps,
            "seconds": 0.01, "value": value, "flag": flag}


def _write(path, records):
    path.write_text(json.dumps(records), encoding="utf-8")
    return path


def test_diff_reports_a_rise_a_new_flag_and_more_sweeps(record, tmp_path, capsys):
    a, b = ["grid", "petz", 0.7, 2, 0], ["grid", "petz", 0.7, 2, 1]
    c, e = ["grid", "petz", 0.7, 2, 2], ["grid", "petz", 0.7, 2, 3]
    old = _write(tmp_path / "old.json", [_rec(a, 10, 1.0), _rec(b, 10, 2.0),
                                         _rec(c, 40, 3.0), _rec(e, 500, 4.0)])
    new = _write(tmp_path / "new.json", [_rec(a, 30, 1.5), _rec(b, 10, 2.0, "capped"),
                                         _rec(c, 4, 3.0), _rec(e, 100, 4.0)])
    record.diff(old, new)
    out = capsys.readouterr().out
    assert "1 newly flagged\n  ('grid', 'petz', 0.7, 2, 1): capped" in out
    assert "1 cases took more sweeps\n  ('grid', 'petz', 0.7, 2, 0): 10 -> 30" in out
    # The fall by ratio (10x), not the one by count (400 sweeps).
    assert ("2 cases took fewer sweeps\n  largest fall ('grid', 'petz', 0.7, 2, 2): 40 -> 4"
            in out)
    assert "largest absolute value rise: 0.5 at ('grid', 'petz', 0.7, 2, 0)" in out
    assert "largest absolute value drop: none" in out


def test_diff_refuses_different_cases(record, tmp_path):
    old = _write(tmp_path / "old.json", [_rec(["grid", "petz", 0.7, 2, 0], 10, 1.0)])
    new = _write(tmp_path / "new.json", [_rec(["grid", "petz", 0.7, 2, 1], 10, 1.0)])
    with pytest.raises(SystemExit) as exc:
        record.diff(old, new)
    assert exc.value.code != 0 and "different cases" in str(exc.value.code)


def test_diff_prints_the_largest_curve_gap_of_each_side(record, tmp_path, capsys):
    case = ["random:2:3:7"]
    rec = {"set": "curves", "case": case, "group": case[0], "solves": 3, "sweeps": 9,
           "seconds": 0.01, "value": [0.0, 0.1, 0.2], "flag": None, "argmax": [1.0, 2.0, 3.0]}
    old = _write(tmp_path / "old.json", [rec])
    new = _write(tmp_path / "new.json", [{**rec, "gap": [None, 3e-14, 1e-15]}])
    record.diff(old, new)
    before, after = capsys.readouterr().out.split("\nnew: ")
    assert "gap" not in before
    assert after.startswith("3 solves") and "largest gap 3e-14" in after.splitlines()[0]


def test_diff_scales_a_relative_move_by_at_least_one(record, tmp_path, capsys):
    # A roundoff move on a near-zero exponent is not a large relative change.
    a, b = ["grid", "petz", 0.7, 2, 0], ["grid", "petz", 0.7, 2, 1]
    old = _write(tmp_path / "old.json", [_rec(a, 10, 1.5e-6), _rec(b, 10, 4.0)])
    new = _write(tmp_path / "new.json", [_rec(a, 10, 1.5e-6 + 8e-16), _rec(b, 10, 4.0 - 2.0**-48)])
    record.diff(old, new)
    out = capsys.readouterr().out
    assert "largest relative value rise: 8e-16 at ('grid', 'petz', 0.7, 2, 0)" in out
    assert "largest relative value drop: 8.88e-16 at ('grid', 'petz', 0.7, 2, 1)" in out
