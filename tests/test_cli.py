"""CLI: verification runs, report files, emission formats, determinism."""

import json
import subprocess
import sys

import pytest

from homcat.cli import main
from homcat.exercises import Options, available_exercises, run_exercise


def test_unknown_exercise_lists_ids():
    with pytest.raises(ValueError, match="available"):
        run_exercise("bogus")


def test_exercise_ids_cover_scope():
    ids = {k for k, _ in available_exercises()}
    for required in [
        "1.2.1", "1.4.1", "1.5.1", "1.5.2", "1.6.1", "1.6.3-counts", "1.6.3-ext",
        "1.6.3-ar", "1.7.1", "1.7.2", "1.7.3", "2.1.1", "2.4.1", "2.5.1",
        "3.1.1", "3.3.2", "3.5.1", "5.1.1", "5.3.1", "6.1.1", "7.4.1", "7.5.1",
    ]:
        assert required in ids


def test_verify_writes_deterministic_report(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["verify", "2.4.1", "--out", str(out1)]) == 0
    assert main(["verify", "2.4.1", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["pass"] is True
    assert payload["exercise"] == "2.4.1"
    assert "runtime" not in payload
    assert all(set(row) == {"name", "expected", "got", "pass"} for row in payload["checks"])


def test_verify_1_7_2_runs_with_default_samples():
    assert main(["verify", "1.7.2"]) == 0


def test_verify_1_7_3_writes_json(tmp_path):
    out = tmp_path / "r.json"
    assert main(["verify", "1.7.3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True


def test_verify_list(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "1.6.3-counts" in out


def test_verify_unknown_id_exit_code(capsys):
    assert main(["verify", "nope"]) == 2
    assert "available" in capsys.readouterr().err


def test_emit_ar_quiver_dot(tmp_path):
    out = tmp_path / "q.dot"
    assert main(["emit", "ar-quiver", "--algebra", "lambda1", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("digraph")
    assert text.count("->") == 6
    assert text.count('";') >= 6


def test_emit_ar_quiver_json(tmp_path):
    out = tmp_path / "q.json"
    assert main(
        ["emit", "ar-quiver", "--algebra", "lambda1", "--out", str(out), "--format", "json"]
    ) == 0
    payload = json.loads(out.read_text())
    assert len(payload["vertices"]) == 6
    assert sum(a["multiplicity"] for a in payload["arrows"]) == 6


def test_emit_stable_ar_quiver(tmp_path):
    out = tmp_path / "s.dot"
    assert main(["emit", "stable-ar-quiver", "--algebra", "truncpoly(3)", "--out", str(out)]) == 0
    assert out.read_text().count("->") == 2


def test_emit_ext_table(tmp_path):
    out = tmp_path / "ext.json"
    assert main(
        ["emit", "ext-table", "--algebra", "lambda3", "--out", str(out), "--format", "json"]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["algebra"] == "lambda3"
    rows = {(r["src"], r["dst"], r["degree"]): r["dim"] for r in payload["rows"]}
    assert rows[("m100", "m001", 2)] == 1  # Ext^2(S1, S3) = 1


def test_emit_rejects_table_as_dot(tmp_path, capsys):
    out = tmp_path / "bad.dot"
    assert main(["emit", "ext-table", "--algebra", "lambda1", "--out", str(out)]) == 2
    assert "json" in capsys.readouterr().err


def test_emit_deterministic(tmp_path):
    a = tmp_path / "a.dot"
    b = tmp_path / "b.dot"
    for path in (a, b):
        main(["emit", "ar-quiver", "--algebra", "lambda2", "--out", str(path)])
    assert a.read_bytes() == b.read_bytes()


def test_emit_tilting_report(tmp_path):
    out = tmp_path / "tilt.json"
    assert main(
        ["emit", "tilting-report", "--algebra", "lambda2", "--out", str(out), "--format", "json"]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["end_dim"] == 5
    assert payload["iso_found"] is True
    assert payload["rows"]


def test_console_script_entry():
    result = subprocess.run(
        [sys.executable, "-m", "homcat.cli", "verify", "--list"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "tilting" in result.stdout
