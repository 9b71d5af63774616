"""Smoke runs of the README's reproduction scripts at a small scale, and
of its Python examples as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.MULTILINE | re.DOTALL)


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


@pytest.mark.parametrize(
    "block", README_BLOCKS, ids=[f"block{i}" for i in range(len(README_BLOCKS))]
)
def test_readme_python_example_runs(tmp_path, block):
    # relative paths in the example (its output_dir) land in tmp_path
    result = subprocess.run(
        [sys.executable, "-c", block],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
