"""Every demo script runs to completion against this checkout, so a
public name dropped from the package cannot break one unnoticed."""

import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import child_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, timeout=300, cwd=tmp_path, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
