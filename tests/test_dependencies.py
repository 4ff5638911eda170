"""The declared dependencies and Python floor in pyproject.toml hold.

Every third-party module the tests import is declared, no source file uses
syntax newer than ``requires-python``, every strided view the library takes
is read-only, and only the command line and the package import the window
decomposition that the acceptance gate checks.
"""

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


def _parenthesised(source: str, node: ast.Tuple) -> bool:
    # a parenthesised tuple's node ends at its ")", after its last element
    last = node.elts[-1]
    return ((node.end_lineno, node.end_col_offset) > (last.end_lineno, last.end_col_offset)
            and ast.get_source_segment(source, node).endswith(")"))


def _syntax_newer_than_3_10(source: str) -> list[str]:
    """Lines using 3.11 syntax that ``ast.parse(feature_version=(3, 10))`` accepts:
    a starred item in an unparenthesised subscript tuple, and ``except*``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, getattr(ast, "TryStar", ())):
            found.append(f"{node.lineno}: except*")
        elif (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
              and any(isinstance(e, ast.Starred) for e in node.slice.elts)
              and not _parenthesised(source, node.slice)):
            found.append(f"{node.lineno}: starred subscript")
    return found


def test_sources_use_no_syntax_newer_than_requires_python():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["requires-python"] == ">=3.10"
    assert _syntax_newer_than_3_10("a[..., *k]\na[x, *k,]\na[(x), *(k)]\na[*k]") == [
        "1: starred subscript", "2: starred subscript", "3: starred subscript",
        "4: starred subscript",
    ]
    assert _syntax_newer_than_3_10("a[(..., *k)]\na[(x, *k,)]\na[x, k]\nf(*k)") == []
    if sys.version_info >= (3, 11):
        assert _syntax_newer_than_3_10("try:\n    pass\nexcept* ValueError:\n    pass") == [
            "1: except*"]
    paths = [p for part in ("src", "tests", "scripts") for p in sorted((ROOT / part).rglob("*.py"))]
    assert len(paths) > 10
    found = [f"{p.relative_to(ROOT)}:{line}" for p in paths
             for line in _syntax_newer_than_3_10(p.read_text(encoding="utf-8"))]
    assert not found, f"syntax newer than Python 3.10: {found}"


def _writable_strided_views(source: str) -> list[int]:
    """Lines calling ``as_strided`` without a literal ``writeable=False``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "as_strided"
            and not any(k.arg == "writeable" and isinstance(k.value, ast.Constant)
                        and k.value.value is False for k in node.keywords)]


def test_library_takes_only_read_only_strided_views():
    # a writable as_strided view can alias one cell under many indices, so a
    # write through it corrupts the grid it views
    assert _writable_strided_views(
        "as_strided(a, s, t)\nnp.lib.stride_tricks.as_strided(a, writeable=True)\n"
        "as_strided(a, writeable=0)\nas_strided(a, **kw)\nas_strided(a, writeable=flag)"
    ) == [1, 2, 3, 4, 5]
    assert _writable_strided_views(
        "as_strided(a, s, t, writeable=False)\nst.as_strided(a, writeable=False).copy()"
    ) == []
    paths = sorted((ROOT / "src").rglob("*.py"))
    assert paths
    found = [f"{p.relative_to(ROOT)}:{line}" for p in paths
             for line in _writable_strided_views(p.read_text(encoding="utf-8"))]
    assert not found, f"as_strided without writeable=False: {found}"


def _windec_modules_imported(source: str) -> set[str]:
    """The ``windec`` submodules a source file inside ``src/windec`` imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("windec."))
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "windec":
                    continue
                parts = parts[1:]
            found.update(parts[:1] if parts and parts[0] else (a.name for a in node.names))
    return found


def test_only_cli_and_the_package_import_the_decomposition():
    # prediction computes the decomposition without calling it, so tensor,
    # windowing, models, generators, sizing and config do not depend on it
    assert _windec_modules_imported(
        "from .decomposition import x\nfrom . import decomposition, tensor\n"
        "import windec.decomposition\nfrom windec.windowing import y\nimport numpy"
    ) == {"decomposition", "tensor", "windowing"}
    importers = {p.stem for p in sorted((ROOT / "src" / "windec").glob("*.py"))
                 if "decomposition" in _windec_modules_imported(p.read_text(encoding="utf-8"))}
    assert importers == {"cli", "__init__"}


def test_windowing_keeps_no_alias_of_the_decomposition():
    from windec import decomposition, windowing

    moved = ("expand_domain", "chunk_domain", "window_patch", "window_offsets",
             "receptive_field_probe")
    assert all(hasattr(decomposition, name) for name in moved)
    assert [name for name in moved if hasattr(windowing, name)] == []
