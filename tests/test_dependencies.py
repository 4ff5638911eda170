"""Every third-party module the tests import is declared in pyproject.toml."""

import ast
import re
import sys
from importlib.metadata import packages_distributions
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def _normalize(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def _imported_top_level_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_test_imports_are_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {
        _normalize(re.match(r"[A-Za-z0-9][A-Za-z0-9._-]*", req).group())
        for req in project["dependencies"] + project["optional-dependencies"]["dev"]
    }
    test_files = sorted((ROOT / "tests").glob("*.py"))
    local = {p.stem for p in test_files} | {project["name"]}
    imported = set().union(*map(_imported_top_level_modules, test_files))
    third_party = imported - local - set(sys.stdlib_module_names)
    assert third_party, "expected at least numpy and pytest"

    distributions = packages_distributions()
    missing = sorted(
        module for module in third_party
        if not any(_normalize(d) in declared for d in distributions.get(module, [module]))
    )
    assert not missing, f"imported under tests/ but not in pyproject.toml: {missing}"
