"""The library's runtime dependencies stay the standard library, numpy and PyYAML."""

import ast
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "loglosslab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "yaml", "loglosslab"}


def imported_packages(tree: ast.Module) -> set[str]:
    """The top-level package of every absolute import anywhere in a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_imports_stay_within_the_runtime_dependencies(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert imported_packages(tree) <= ALLOWED


def test_an_outside_import_is_caught():
    tree = ast.parse("import os\nfrom . import oneshot\n"
                     "def f():\n    import scipy.optimize\n")
    assert imported_packages(tree) - ALLOWED == {"scipy"}
