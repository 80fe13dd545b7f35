"""One owner names every refusal.

A message says what went wrong; ``errors.py`` puts the name of the public
function, method or record that refused in front of it, as the error
leaves that call.  Two owners do so: the wrapper of ``errors._checked``,
on each public function or method that takes an argument, and
``errors._check_fields``, for a record.  So no other function sets an
error's ``caller`` or is a context manager that could, no function outside
``errors.py`` takes a ``caller`` to pass a name along, and no message
raised in a library module starts with a name of its own, which would name
a function the caller may not have called.  ``cli.py`` and
``problemio.py`` are exempt from the last rule: their messages name flags
and files.
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


def naming_owners(tree: ast.Module) -> list[str]:
    """The top-level functions, methods as "Class.method", that set a ``caller``.

    A function sets one when it, or a function nested in it, assigns an
    attribute named caller, or when it is a ``contextlib.contextmanager``.
    """
    defs = [(node.name, node) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    defs += [(f"{cls.name}.{node.name}", node) for cls in tree.body
             if isinstance(cls, ast.ClassDef) for node in cls.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [name for name, node in defs
            if "contextmanager" in map(_name, node.decorator_list)
            or any(isinstance(sub, ast.Attribute) and sub.attr == "caller"
                   and isinstance(sub.ctx, ast.Store) for sub in ast.walk(node))]


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


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_two_owners_set_a_caller(path):
    assert naming_owners(parse(path)) == (
        ["_check_fields", "_checked"] if path.stem == "errors" else [])


def test_a_third_owner_is_caught():
    tree = ast.parse(
        "@contextlib.contextmanager\n"
        "def _named(caller):\n"
        "    try:\n"
        "        yield\n"
        "    except LoglossLabError as exc:\n"
        "        exc.caller = caller\n"
        "        raise\n"
        "@contextmanager\n"
        "def quiet():\n"
        "    yield\n"
        "class SrReport:\n"
        "    def residual(self, name):\n"
        "        err = ValidationError(name)\n"
        "        err.caller = 'SrReport.residual'\n"
        "        raise err\n"
        "def fine(exc):\n"
        "    caller = exc.caller\n"
        "    return caller\n")
    assert naming_owners(tree) == ["_named", "quiet", "SrReport.residual"]


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
