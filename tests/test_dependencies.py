"""The package and its scripts depend on numpy and scipy alone, besides the
standard library. Of scipy the package loads only its compiled sparse
kernels, and only where it uses them."""

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


def test_source_imports_scipy_through_no_import_statement():
    # the kernel loader (scoring.sparse_kernels) is the one place src/ reaches scipy
    for path in sorted((ROOT / "src" / "chunkfuse").glob("*.py")):
        assert "scipy" not in imported_packages(path), path.name


def run_probe(probe, *args):
    """``probe`` in its own interpreter (the test process has scipy loaded
    already); returns its stdout lines."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", probe, *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split("\n")


SCIPY_PROBE = """
import sys
from chunkfuse.cli import load_config
from chunkfuse.experiment import run_experiment

def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

configs, out = sys.argv[1], sys.argv[2]
print("import", loaded())
run_experiment(load_config(f"{configs}/overlap_pattern.json", [
    "--data.num_docs", "40", "--output_dir", f"{out}/pattern"]))
print("pattern", loaded())
report = run_experiment(load_config(f"{configs}/compare_synthetic.json", [
    "--data.num_docs", "40", "--data.min_tokens", "100", "--data.max_tokens", "200",
    "--trainer.max_epochs", "2", "--trainer.accumulation_steps", "1",
    "--output_dir", f"{out}/linear"]))
print("linear", loaded(), report.worst_error_code())
"""


def test_scipy_is_loaded_only_when_a_csr_is_built(tmp_path):
    # a linear run loads scipy's kernel module alone, never scipy.sparse
    assert run_probe(SCIPY_PROBE, ROOT / "configs", tmp_path) == [
        "import []", "pattern []", "linear ['scipy.sparse._sparsetools'] 0", "",
    ]


KERNELS_AND_SCIPY_PROBE = """
import sys
import numpy as np
from chunkfuse.scoring import csr_arrays, csr_logits, sparse_kernels

if sys.argv[1] == "kernels-first":
    kernels = sparse_kernels()
    from scipy import sparse
else:
    from scipy import sparse
    kernels = sparse_kernels()
matrix = sparse.random(40, 30, density=0.2, format="csr", random_state=0)
weights = np.random.default_rng(0).normal(size=(3, 30))
dense = matrix.toarray()
print(kernels is sys.modules["scipy.sparse._sparsetools"],
      np.allclose((matrix @ matrix.T).toarray(), dense @ dense.T),
      np.array_equal(csr_logits(csr_arrays(matrix), weights), matrix @ weights.T))
"""


@pytest.mark.parametrize("order", ["kernels-first", "scipy-first"])
def test_kernels_and_scipy_sparse_load_in_either_order(order):
    assert run_probe(KERNELS_AND_SCIPY_PROBE, order) == ["True True True", ""]


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
    assert run_probe(HTTP_PROBE, ROOT / "configs", tmp_path) == [
        "import []", "pattern []", "linear []",
        "remote ['http.client', 'http.server', 'ssl'] 3", "",
    ]
