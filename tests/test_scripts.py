"""Smoke runs of the README's reproduction scripts at a small scale, their
failure exits, and runs of its Python examples as written."""

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
            ["--data.num_docs", "300", "--data.min_tokens", "600", "--data.max_tokens", "1200"],
        ),
        ("run_overlap_experiment.py", ["--data.num_docs", "60"]),
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


MOCK_WITHOUT_PROBS = ('--scorers=[{"scorer_id": "a", "kind": "linear"},'
                      ' {"scorer_id": "m", "kind": "mock"}]')
UNKNOWN_PATTERN = ('--scorers=[{"scorer_id": "p", "kind": "pattern",'
                   ' "metadata": {"pattern": "zzzz"}}]')


@pytest.mark.parametrize(
    "script, args, message",
    [
        ("run_ordering_experiment.py", ["--data.num_docs", "0"],
         "error: num_docs must be positive"),
        ("run_overlap_experiment.py", ["--chunking.overlap", "510"],
         "error: overlap must be in [0, capacity)"),
        ("run_ordering_experiment.py", ["--data.num_docs", "60", MOCK_WITHOUT_PROBS],
         "error: scorer m: mock scorer m needs metadata.probs"),
        ("run_overlap_experiment.py", ["--data.num_docs", "60", UNKNOWN_PATTERN],
         "error: scorer p: pattern scorer p: tokens ['zzzz']"),
    ],
    ids=["bad-override-ordering", "bad-override-overlap", "error-row-ordering",
         "error-row-overlap"],
)
def test_script_failure_exits_with_its_code_and_no_traceback(tmp_path, script, args, message):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--num-seeds", "1",
         "--output-dir", str(tmp_path), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert result.stderr.splitlines()[-1].startswith(message), result.stderr
    assert "Traceback" not in result.stderr


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
