"""Every demo script runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert result.returncode == 0, result.stderr
