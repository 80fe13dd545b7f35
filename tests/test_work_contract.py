"""One owner for the work contract.

Every refusal of an exhaustive search is raised by ``oneshot._check_work``,
beside the guard constants, and the CLI reads no guard: it calls a guarded
routine and treats the refusal as its answer.
"""

import ast
import re
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "loglosslab"
ERROR = "InstanceTooLargeError"


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def stray_refusals(tree: ast.Module) -> list[str]:
    """The functions, other than _check_work, that build or raise the error."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            built = isinstance(child, ast.Call) and _name(child.func) == ERROR
            raised = isinstance(child, ast.Raise) and _name(child.exc) == ERROR
            if (built or raised) and owner != "_check_work":
                found.append(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return found


def guard_names(tree: ast.Module) -> set[str]:
    """Every name of the form _*_GUARD that a module imports or reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif _name(node) is not None:
            names.add(_name(node))
    return {name for name in names if re.fullmatch(r"_\w*_GUARD", name)}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_work_check_refuses(path):
    assert stray_refusals(parse(path)) == []


def test_the_cli_reads_no_guard():
    assert guard_names(parse(SOURCE / "cli.py")) == set()


def test_a_stray_refusal_is_caught():
    tree = ast.parse(
        "def _check_work(caller, amount, what, guard):\n"
        "    raise InstanceTooLargeError(caller)\n"
        "def solve(r):\n"
        "    if r > 12:\n"
        "        raise errors.InstanceTooLargeError(f'alphabet {r}')\n"
        "def retry():\n"
        "    try:\n"
        "        solve(13)\n"
        "    except InstanceTooLargeError:\n"
        "        raise InstanceTooLargeError\n")
    assert stray_refusals(tree) == ["solve", "retry"]


def test_a_guard_in_the_cli_is_caught():
    tree = ast.parse("from .oneshot import _COVER_ALPHABET_GUARD, solve_avg\n"
                     "from . import oneshot\n"
                     "ok = r <= oneshot._CODE_ENUM_GUARD\n")
    assert guard_names(tree) == {"_COVER_ALPHABET_GUARD", "_CODE_ENUM_GUARD"}
