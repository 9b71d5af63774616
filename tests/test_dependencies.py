"""The package and its scripts depend on numpy and scipy alone, besides the
standard library, and load scipy only where they use it."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "chunkfuse"}


def imported_packages(path: Path) -> set[str]:
    """Top-level names of every absolute import in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "src" / "chunkfuse").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")),
    ids=lambda p: p.name,
)
def test_source_imports_only_stdlib_numpy_scipy(path):
    assert imported_packages(path) - ALLOWED == set()


def test_pyproject_lists_exactly_numpy_and_scipy():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = {re.match(r"[A-Za-z0-9_.-]+", spec)[0].lower() for spec in project["dependencies"]}
    assert names == {"numpy", "scipy"}


SCIPY_PROBE = """
import sys
from chunkfuse.cli import load_config
from chunkfuse.experiment import run_experiment

configs, out = sys.argv[1], sys.argv[2]
print("import", "scipy" in sys.modules)
run_experiment(load_config(f"{configs}/overlap_pattern.json", [
    "--data.num_docs", "40", "--output_dir", f"{out}/pattern"]))
print("pattern", "scipy" in sys.modules)
report = run_experiment(load_config(f"{configs}/compare_synthetic.json", [
    "--data.num_docs", "40", "--data.min_tokens", "100", "--data.max_tokens", "200",
    "--trainer.max_epochs", "2", "--trainer.accumulation_steps", "1",
    "--output_dir", f"{out}/linear"]))
print("linear", "scipy" in sys.modules, report.worst_error_code())
"""


def test_scipy_is_loaded_only_when_a_csr_is_built(tmp_path):
    # its own interpreter: the test process has scipy loaded already
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(ROOT / "configs"), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == ["import False", "pattern False", "linear True 0", ""]


HTTP_PROBE = """
import sys
HTTP = ("http.client", "http.server", "ssl")

def loaded():
    return [name for name in HTTP if name in sys.modules]

from chunkfuse.cli import load_config
from chunkfuse.experiment import ExperimentConfig, run_experiment

configs, out = sys.argv[1], sys.argv[2]
print("import", loaded())
run_experiment(load_config(f"{configs}/overlap_pattern.json", [
    "--data.num_docs", "40", "--output_dir", f"{out}/pattern"]))
print("pattern", loaded())
run_experiment(load_config(f"{configs}/compare_synthetic.json", [
    "--data.num_docs", "40", "--data.min_tokens", "100", "--data.max_tokens", "200",
    "--trainer.max_epochs", "2", "--trainer.accumulation_steps", "1",
    "--output_dir", f"{out}/linear"]))
print("linear", loaded())
report = run_experiment(ExperimentConfig.from_json_dict({
    "task": "mortality",
    "data": {"kind": "synthetic", "num_docs": 40, "min_tokens": 80, "max_tokens": 160},
    "scorers": [{"scorer_id": "far", "kind": "remote",
                 "metadata": {"endpoint": "http://127.0.0.1:9"}}],
    "methods": ["baseline"], "output_dir": f"{out}/remote"}))
print("remote", loaded(), report.worst_error_code())
"""


def test_http_stack_is_loaded_only_for_a_remote_scorer(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", HTTP_PROBE, str(ROOT / "configs"), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == [
        "import []", "pattern []", "linear []",
        "remote ['http.client', 'http.server', 'ssl'] 3", "",
    ]
