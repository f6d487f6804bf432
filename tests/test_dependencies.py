"""The runtime keeps zero dependencies: the package imports only the
standard library and itself, and ``pyproject.toml`` declares nothing."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def absolute_imports(path):
    """The top-level module of every absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_the_package_imports_only_the_standard_library_and_itself():
    sources = sorted((ROOT / "src" / "abrsim").glob("*.py"))
    assert sources
    foreign = {
        f"{path.name}: {top}"
        for path in sources
        for top in absolute_imports(path)
        if top not in sys.stdlib_module_names and top != "abrsim"
    }
    assert not foreign


def test_pyproject_declares_no_runtime_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)
