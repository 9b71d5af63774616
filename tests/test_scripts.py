"""Smoke runs of the README's reproduction scripts at a small scale."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, args",
    [
        (
            "run_ordering_experiment.py",
            ["--num-docs", "300", "--min-tokens", "600", "--max-tokens", "1200"],
        ),
        ("run_overlap_experiment.py", ["--num-docs", "60"]),
    ],
)
def test_script_runs_and_its_ordering_holds(tmp_path, script, args):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--num-seeds", "1",
         "--output-dir", str(tmp_path), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "in 1/1 seeds" in result.stdout
    assert list(tmp_path.glob("seed0*/report.json"))
