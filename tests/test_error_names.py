"""One owner names every refusal.

A message says what went wrong; ``errors.py`` puts the name of the public
function or record that refused in front of it, as the error leaves that
call (``errors._checked``, ``errors._check_fields`` or ``errors._named``).
So no function outside ``errors.py`` takes a ``caller`` to pass a name
along, and no message raised in a library module starts with a name of its
own, which would name a function the caller may not have called.
``cli.py`` and ``problemio.py`` are exempt from the second rule: their
messages name flags and files.
"""

import ast
import re
from pathlib import Path

import pytest

from loglosslab import errors

SOURCE = Path(__file__).resolve().parent.parent / "src" / "loglosslab"
LIBRARY = ["errors", "probability", "ratedistortion", "oneshot", "equivalence", "refinement"]
# A literal "identifier: " or "Class.method: " at the start of a message.
NAMED = re.compile(r"^[A-Za-z_][\w.]*: ")


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def caller_parameters(tree: ast.Module) -> list[str]:
    """The functions, lambdas as "<lambda>", that take a parameter named caller."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            if "caller" in [param.arg for param in params if param is not None]:
                found.append(getattr(node, "name", "<lambda>"))
    return found


def named_messages(tree: ast.Module) -> list[str]:
    """The literal start of each error message that starts with a name.

    A message is the first argument of a call to a class in
    ``errors.__all__``; an f-string's literal start is its first part, if
    that part is text.
    """
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _name(node.func) in errors.__all__ and node.args):
            continue
        start = node.args[0]
        if isinstance(start, ast.JoinedStr) and start.values:
            start = start.values[0]
        if (isinstance(start, ast.Constant) and isinstance(start.value, str)
                and NAMED.match(start.value)):
            found.append(start.value)
    return found


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", sorted(p for p in SOURCE.glob("*.py") if p.stem != "errors"),
                         ids=lambda p: p.name)
def test_no_function_takes_a_caller(path):
    assert caller_parameters(parse(path)) == []


@pytest.mark.parametrize("module", LIBRARY)
def test_no_library_message_names_itself(module):
    assert named_messages(parse(SOURCE / f"{module}.py")) == []


def test_both_rules_catch_the_old_threading():
    tree = ast.parse(
        "def _check_work(caller, amount, what, guard):\n"
        "    raise InstanceTooLargeError(f'{caller}: {amount} {what} exceeds guard {guard}')\n"
        "name = lambda caller: caller\n"
        "def floor_exp(d):\n"
        "    raise ValidationError(f'floor_exp: d must be at most {m:g}, got {d!r}: '\n"
        "                          'floor(exp(d)) would not be a float')\n"
        "def residual(self, name):\n"
        "    raise errors.ValidationError('SrReport.residual: name must be one of ...')\n"
        "def fine(d):\n"
        "    raise ValidationError(f'{d} = 1: too far')\n"
        "    raise ConvergenceError('solve did not converge: gap 1', gap=1.0)\n")
    assert caller_parameters(tree) == ["_check_work", "<lambda>"]
    assert named_messages(tree) == ["floor_exp: d must be at most ",
                                    "SrReport.residual: name must be one of ..."]
