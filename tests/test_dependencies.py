"""The package and its scripts depend on numpy and scipy alone, besides the
standard library."""

import ast
import re
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
