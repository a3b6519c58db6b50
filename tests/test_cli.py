"""CLI: verification runs, report files, emission formats, determinism."""

import hashlib
import json
import subprocess
import sys

import pytest

from homcat.cli import main
from homcat.exercises import available_exercises, run_exercise


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


def test_the_package_runs_as_a_module(tmp_path):
    # `python -m homcat` is the same front end, with no install needed
    out = tmp_path / "r.json"
    result = subprocess.run(
        [sys.executable, "-m", "homcat", "verify", "5.3.1", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REPORT_SHA256["5.3.1"]


def test_verify_refuses_a_prime_above_the_bound(capsys):
    assert main(["verify", "1.2.1", "--prime", str(2**31 - 1)]) == 2
    assert "MAX_PRIME" in capsys.readouterr().err


@pytest.mark.parametrize("suite, window", [("3.3.2", ["-1", "1"]), ("7.5.1", ["2", "-2"])])
def test_verify_refuses_a_window_too_narrow_for_complete_resolutions(tmp_path, capsys, suite, window):
    out = tmp_path / "r.json"
    assert main(["verify", suite, "--window", *window, "--out", str(out)]) == 2
    assert "window" in capsys.readouterr().err
    assert not out.exists()


def test_verify_refuses_a_cap_too_small_with_exit_2(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["verify", "1.6.3-ext", "--cap", "1", "--out", str(out)]) == 2
    assert "did not terminate within 1 steps" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["ar-quiver", "--algebra", "nosuch"],
        ["ar-quiver", "--algebra", "lambda1", "--prime", "4"],
        ["ar-quiver", "--algebra", "lambda1", "--prime", str(2**31 - 1)],
        ["tilting-report", "--algebra", "lambda1", "--format", "json"],
    ],
)
def test_emit_bad_flags_exit_2_and_write_nothing(tmp_path, capsys, flags):
    out = tmp_path / "out"
    assert main(["emit", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err
    assert not out.exists()


def test_emit_refuses_an_unbounded_resolution_with_exit_2(tmp_path, capsys):
    # truncpoly(3) has modules of infinite projective dimension: the resolution cap is reached
    out = tmp_path / "ext.json"
    assert main(["emit", "ext-table", "--algebra", "truncpoly(3)", "--format", "json", "--out", str(out)]) == 2
    assert "did not terminate" in capsys.readouterr().err
    assert not out.exists()


def test_emit_ar_quiver_at_a_large_prime_matches_p2(tmp_path):
    # the knitted classification is certified at every prime, and the quiver is field independent
    out = {}
    for p in ("2", "101"):
        out[p] = tmp_path / f"q{p}.dot"
        assert main(["emit", "ar-quiver", "--algebra", "lambda1", "--prime", p, "--out", str(out[p])]) == 0
    assert out["101"].read_bytes() == out["2"].read_bytes()


# sha256 of `homcat verify <id> --out` for suites whose reports a performance
# change could silently alter: Hom coordinates (5.3.1, 6.1.1, 1.7.1), the
# knitted classification counts (1.6.3-counts) and the stable AR quivers (3.3.2)
REPORT_SHA256 = {
    "5.3.1": "837d3910104443b152a8a4791dad4bee579443f6637500c8f112f1097450a410",
    "6.1.1": "270e6c2c2aa4e2c0a598bebebd704fc2089924a10a65d35088fa93862265eb34",
    "1.7.1": "6ff9e74854e74926d42406a8e5939cdd7084d3eb645d9762d5c49d5cf9c2f0d4",
    "1.6.3-counts": "c2a831fdd22f4389d16b5967e895f222583f1296b140596a8077671125934577",
    "3.3.2": "3aef2d97319b342dcb4c1be96307b72594d16de61e79ec9f3f7c291838dc6e48",
}


@pytest.mark.parametrize("suite", sorted(REPORT_SHA256))
def test_verify_report_bytes_are_pinned(tmp_path, suite):
    out = tmp_path / "r.json"
    assert main(["verify", suite, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REPORT_SHA256[suite]


# sha256 of `homcat emit tilting-report --format json` for both targets at three primes
TILTING_REPORT_SHA256 = {
    ("lambda2", 2): "62d1866bb8d91f42c7945fac489e5baf3dce9b177cc2412c128b157ddaf5164d",
    ("lambda2", 3): "b36786325af006ec3872aa55d23fadba4e8ea651f71493a7f39c3a3d87221fb2",
    ("lambda2", 101): "45e6f353746452c6ad44559663924b3fb9eb2b6d9033a3604cb8d5fdf216cd46",
    ("lambda3", 2): "a74b3db8c92ed196531b3ef29de4ee60a332f98c05b7472121f74f663b7836cb",
    ("lambda3", 3): "cf37704e72ec8007353d40a5fa94440b12c12c7315b526c3930542f7515e233b",
    ("lambda3", 101): "6c004f8e8081c7cb15595d22001b592c428e0c5330ac6363444ff35a74ac3b3b",
}


@pytest.mark.parametrize("algebra, prime", sorted(TILTING_REPORT_SHA256))
def test_emit_tilting_report_bytes_are_pinned(tmp_path, algebra, prime):
    out = tmp_path / "t.json"
    args = ["emit", "tilting-report", "--algebra", algebra, "--prime", str(prime), "--format", "json"]
    assert main(args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TILTING_REPORT_SHA256[(algebra, prime)]


# sha256 of `homcat emit ext-table --format json` for the three matrix algebras at p = 2 and p = 3
EXT_TABLE_SHA256 = {
    ("lambda1", 2): "1820478d417e355aebc43a447e0cf452c6e889d5efcae1a477942c25638203aa",
    ("lambda1", 3): "b4d4733b7977c176b50defb2ad7b75598daa32a3fedbff8b338b0ff0b78c71e4",
    ("lambda2", 2): "1663aa9e53bb83880b3906ff5150e7c32dcea50a271493c6dc1885f3f3b6e864",
    ("lambda2", 3): "5e5fe054df8b666a2bd30708adafe70c3e5397f74dd084d64e10fc86e46f672e",
    ("lambda3", 2): "c0a49e26fdb642c229f51800984c5cf9e0d2173fddd2e7cce7c3d8f1a5e8542a",
    ("lambda3", 3): "2ebc9240098c37d0beec21a7621a409012a8bfc796f86b3265e3464b5294925b",
}


@pytest.mark.parametrize("algebra, prime", sorted(EXT_TABLE_SHA256))
def test_emit_ext_table_bytes_are_pinned(tmp_path, algebra, prime):
    out = tmp_path / "e.json"
    args = ["emit", "ext-table", "--algebra", algebra, "--prime", str(prime), "--format", "json"]
    assert main(args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXT_TABLE_SHA256[(algebra, prime)]


# sha256 of `homcat emit ar-quiver` for every preset and of `emit stable-ar-quiver`
# for truncpoly(2..5), in both formats at p = 2 and p = 101
AR_QUIVER_SHA256 = {
    ("ar-quiver", "ground_field", "dot", 2): "9b22e9a9ea7af533aa7fdd0db094fcd2ba29145f706749ec74e5e023b24599aa",
    ("ar-quiver", "ground_field", "json", 2): "2a523de089915da97519f0491618777cfa893ffd25707abff832617e060c78e7",
    ("ar-quiver", "ground_field", "dot", 101): "9b22e9a9ea7af533aa7fdd0db094fcd2ba29145f706749ec74e5e023b24599aa",
    ("ar-quiver", "ground_field", "json", 101): "2a523de089915da97519f0491618777cfa893ffd25707abff832617e060c78e7",
    ("ar-quiver", "lambda1", "dot", 2): "6629e55dfe14729c0b701e92f3ee568ad2dd915eec8f8f8026cccf253a2b3a48",
    ("ar-quiver", "lambda1", "json", 2): "759d67bde1b27cf52911a1a379cbffa86d0d2a0212073e8f1f04fe385f028b60",
    ("ar-quiver", "lambda1", "dot", 101): "6629e55dfe14729c0b701e92f3ee568ad2dd915eec8f8f8026cccf253a2b3a48",
    ("ar-quiver", "lambda1", "json", 101): "759d67bde1b27cf52911a1a379cbffa86d0d2a0212073e8f1f04fe385f028b60",
    ("ar-quiver", "lambda2", "dot", 2): "58767263771b2bf59ddb36961c9fc9c83ab1eba05ae34b602dd9e51806b58e39",
    ("ar-quiver", "lambda2", "json", 2): "d7eb50a924b9d5ccc4607831a53957b8942bbe0981d6c888f1a99de35621499f",
    ("ar-quiver", "lambda2", "dot", 101): "58767263771b2bf59ddb36961c9fc9c83ab1eba05ae34b602dd9e51806b58e39",
    ("ar-quiver", "lambda2", "json", 101): "d7eb50a924b9d5ccc4607831a53957b8942bbe0981d6c888f1a99de35621499f",
    ("ar-quiver", "lambda3", "dot", 2): "f8462c650dc360580aa3d40e354638dace42495927a924f4ca5291da9548de72",
    ("ar-quiver", "lambda3", "json", 2): "e7664f6f698342d5cfdbbc52d3c27a816d68a2a02fa581050c8f234f66332c65",
    ("ar-quiver", "lambda3", "dot", 101): "f8462c650dc360580aa3d40e354638dace42495927a924f4ca5291da9548de72",
    ("ar-quiver", "lambda3", "json", 101): "e7664f6f698342d5cfdbbc52d3c27a816d68a2a02fa581050c8f234f66332c65",
    ("ar-quiver", "truncpoly(2)", "dot", 2): "90e066f5da7357ae0e362a019028d523a64f351de74fe6aaa45d2dea27158fd5",
    ("ar-quiver", "truncpoly(2)", "json", 2): "f5c961feb3150e573758c312580f8b5fd92b22f0824f14703177aea63a690076",
    ("ar-quiver", "truncpoly(2)", "dot", 101): "90e066f5da7357ae0e362a019028d523a64f351de74fe6aaa45d2dea27158fd5",
    ("ar-quiver", "truncpoly(2)", "json", 101): "f5c961feb3150e573758c312580f8b5fd92b22f0824f14703177aea63a690076",
    ("ar-quiver", "truncpoly(3)", "dot", 2): "8eefca990fc2efc2bff35c572e9c195c869bf0c64e50f7910ca674de1ac83c8f",
    ("ar-quiver", "truncpoly(3)", "json", 2): "ac8cf9cdfcc7cb66b04f8b2d011cd088b151e2411939e717d0b73095fd2d9183",
    ("ar-quiver", "truncpoly(3)", "dot", 101): "8eefca990fc2efc2bff35c572e9c195c869bf0c64e50f7910ca674de1ac83c8f",
    ("ar-quiver", "truncpoly(3)", "json", 101): "ac8cf9cdfcc7cb66b04f8b2d011cd088b151e2411939e717d0b73095fd2d9183",
    ("ar-quiver", "truncpoly(4)", "dot", 2): "8fcdb8a98e4005e401e237f9cd2420a11b351b7f0c09bf1dc87f114c5db75b34",
    ("ar-quiver", "truncpoly(4)", "json", 2): "dccf44bb99e313f0dc38875356ad0324c7054dedd1f2084c12e7747d398c9a7f",
    ("ar-quiver", "truncpoly(4)", "dot", 101): "8fcdb8a98e4005e401e237f9cd2420a11b351b7f0c09bf1dc87f114c5db75b34",
    ("ar-quiver", "truncpoly(4)", "json", 101): "dccf44bb99e313f0dc38875356ad0324c7054dedd1f2084c12e7747d398c9a7f",
    ("ar-quiver", "truncpoly(5)", "dot", 2): "c5af8e7d18dfdd50eca30d00bcca6d8ae5056c52d6df7025482dfad291d31421",
    ("ar-quiver", "truncpoly(5)", "json", 2): "59a82dc19691da8212da0858e65016fd23e772d7f22e9399392b3448ca2b321d",
    ("ar-quiver", "truncpoly(5)", "dot", 101): "c5af8e7d18dfdd50eca30d00bcca6d8ae5056c52d6df7025482dfad291d31421",
    ("ar-quiver", "truncpoly(5)", "json", 101): "59a82dc19691da8212da0858e65016fd23e772d7f22e9399392b3448ca2b321d",
    ("stable-ar-quiver", "truncpoly(2)", "dot", 2): "6232363739d2eeaeaaa248cf0086c576086a75e39f3098f0fb66b842caf30ab2",
    ("stable-ar-quiver", "truncpoly(2)", "json", 2): "2a523de089915da97519f0491618777cfa893ffd25707abff832617e060c78e7",
    ("stable-ar-quiver", "truncpoly(2)", "dot", 101): "6232363739d2eeaeaaa248cf0086c576086a75e39f3098f0fb66b842caf30ab2",
    ("stable-ar-quiver", "truncpoly(2)", "json", 101): "2a523de089915da97519f0491618777cfa893ffd25707abff832617e060c78e7",
    ("stable-ar-quiver", "truncpoly(3)", "dot", 2): "901c99e4b393d25191cd14effe4ffa605b9eb00fd0bb200c38a0e7cda88d12df",
    ("stable-ar-quiver", "truncpoly(3)", "json", 2): "f5c961feb3150e573758c312580f8b5fd92b22f0824f14703177aea63a690076",
    ("stable-ar-quiver", "truncpoly(3)", "dot", 101): "901c99e4b393d25191cd14effe4ffa605b9eb00fd0bb200c38a0e7cda88d12df",
    ("stable-ar-quiver", "truncpoly(3)", "json", 101): "f5c961feb3150e573758c312580f8b5fd92b22f0824f14703177aea63a690076",
    ("stable-ar-quiver", "truncpoly(4)", "dot", 2): "f7b152677108111955cffd010165ff7a6cfdd3bd784f34a0a24e0a32d85cabc3",
    ("stable-ar-quiver", "truncpoly(4)", "json", 2): "ac8cf9cdfcc7cb66b04f8b2d011cd088b151e2411939e717d0b73095fd2d9183",
    ("stable-ar-quiver", "truncpoly(4)", "dot", 101): "f7b152677108111955cffd010165ff7a6cfdd3bd784f34a0a24e0a32d85cabc3",
    ("stable-ar-quiver", "truncpoly(4)", "json", 101): "ac8cf9cdfcc7cb66b04f8b2d011cd088b151e2411939e717d0b73095fd2d9183",
    ("stable-ar-quiver", "truncpoly(5)", "dot", 2): "9f012a40fa90119198a2de3bc38d5f7779d8ffc9de8ffbf2b97cf6f00fa117a6",
    ("stable-ar-quiver", "truncpoly(5)", "json", 2): "dccf44bb99e313f0dc38875356ad0324c7054dedd1f2084c12e7747d398c9a7f",
    ("stable-ar-quiver", "truncpoly(5)", "dot", 101): "9f012a40fa90119198a2de3bc38d5f7779d8ffc9de8ffbf2b97cf6f00fa117a6",
    ("stable-ar-quiver", "truncpoly(5)", "json", 101): "dccf44bb99e313f0dc38875356ad0324c7054dedd1f2084c12e7747d398c9a7f",
}


@pytest.mark.parametrize("what, algebra, fmt, prime", sorted(AR_QUIVER_SHA256))
def test_emit_ar_quiver_bytes_are_pinned(tmp_path, what, algebra, fmt, prime):
    out = tmp_path / f"q.{fmt}"
    assert main(["emit", what, "--algebra", algebra, "--prime", str(prime), "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == AR_QUIVER_SHA256[(what, algebra, fmt, prime)]
