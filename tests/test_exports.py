"""Every public name is declared once, in its module's ``__all__``.

A name left in ``__all__`` after its definition is gone breaks
``from loglosslab import *`` and misleads a reader of the list.  A class is
listed by the module that defines it, so a class moved to another module
leaves its old module's list.  The package re-exports the library modules'
lists and keeps none of its own; ``problemio`` and ``cli`` stay out of it,
so importing the package loads neither PyYAML nor argparse.  The argument
rules and their decorator in ``errors`` are not exported, and the decorator
is on each public function or method that takes an argument, and on no
other.  The contract test (``test_error_contract.py``) walks every public
function and method.
"""

import importlib
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import loglosslab
from loglosslab import errors

SOURCE = Path(__file__).resolve().parent.parent / "src" / "loglosslab"
MODULES = ["loglosslab"] + [f"loglosslab.{path.stem}" for path in sorted(SOURCE.glob("*.py"))
                            if path.stem not in ("__init__", "__main__")]
# The library modules whose lists the package re-exports, in its order.
LIBRARY = ["errors", "probability", "ratedistortion", "oneshot", "equivalence", "refinement"]


def unresolved(module) -> list[str]:
    """The names of ``module.__all__`` that ``getattr`` does not find."""
    return [name for name in module.__all__ if not hasattr(module, name)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert unresolved(module) == []


def test_a_stale_export_is_caught():
    module = types.ModuleType("stale")
    module.kept = 1
    module.__all__ = ["kept", "removed"]
    assert unresolved(module) == ["removed"]


def test_package_exports_the_library_lists_in_order():
    lists = [importlib.import_module(f"loglosslab.{name}").__all__ for name in LIBRARY]
    assert loglosslab.__all__ == ["__version__"] + [name for names in lists for name in names]


def test_no_name_is_exported_by_two_modules():
    names = [name for module in LIBRARY
             for name in importlib.import_module(f"loglosslab.{module}").__all__]
    assert sorted({name for name in names if names.count(name) > 1}) == []


def test_each_exported_class_is_listed_by_its_defining_module():
    misplaced = [name for name in loglosslab.__all__
                 if inspect.isclass(value := getattr(loglosslab, name))
                 and name not in importlib.import_module(value.__module__).__all__]
    assert misplaced == []
    assert loglosslab.LogLossCode.__module__ == "loglosslab.oneshot"


def test_importing_the_package_loads_neither_yaml_nor_argparse():
    # A fresh interpreter: this one has already imported the CLI's modules.
    left_out = ["yaml", "argparse", "loglosslab.cli", "loglosslab.problemio"]
    probe = f"import sys, loglosslab; print([m for m in {left_out!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SOURCE.parent)})
    assert out.stdout.strip() == "[]"


# The code of the function errors._checked returns; dataclass's recursive_repr
# also sets __wrapped__.
CHECKED = errors._checked(lambda: None).__code__


def functions_defined_in(module) -> dict:
    """Qualified name -> function, for each function and method the module defines."""
    found = {}
    for name, value in vars(module).items():
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            found[name] = value
        elif inspect.isclass(value) and value.__module__ == module.__name__:
            for attr, raw in vars(value).items():
                function = getattr(raw, "__func__", raw)  # a static or class method's function
                if inspect.isfunction(function):
                    found[f"{name}.{attr}"] = function
    return found


def public_functions_defined_in(module) -> set[str]:
    """The qualified names of the public functions and methods the module defines."""
    return {qualname for qualname in functions_defined_in(module)
            if qualname.split(".")[0] in module.__all__ and qualname.split(".")[-1][0] != "_"}


@pytest.mark.parametrize("name", LIBRARY)
def test_only_public_functions_carry_the_argument_checks(name):
    module = importlib.import_module(f"loglosslab.{name}")
    functions = functions_defined_in(module)
    wrapped = {qualname for qualname, function in functions.items()
               if function.__code__ is CHECKED}
    # The hot paths are private, and stay unwrapped.
    assert sorted(q for q in wrapped if q.rsplit(".", 1)[-1].startswith("_")) == []
    public = public_functions_defined_in(module)
    # A public function or method carries the checks exactly when it takes
    # an argument besides self, so that the checks name each of its refusals.
    assert sorted(wrapped) == sorted(
        q for q in public if set(inspect.signature(functions[q]).parameters) - {"self"})
    for qualname in wrapped:
        function = functions[qualname]
        code = function.__wrapped__.__code__
        assert function.__module__ == module.__name__  # perfbench's layer_of reads it
        assert (function.__qualname__, function.__name__) == (qualname, qualname.split(".")[-1])
        assert list(inspect.signature(function).parameters) == list(
            code.co_varnames[:code.co_argcount])


def test_the_argument_rules_are_not_exported():
    assert len(loglosslab.__all__) == 77
    rules = {"Real", "Int", "Seq", "Array", "Finite", "NonNegative", "Positive", "Probability",
             "Count", "Seed"}
    assert all(hasattr(errors, name) for name in rules)
    assert sorted(rules & set(loglosslab.__all__)) == []
    assert sorted(name for name in loglosslab.__all__ if name.startswith("_")) == ["__version__"]


def test_the_contract_test_walks_every_public_function_and_method():
    # Instance methods too, such as Channel.row, whose index another
    # argument (the instance) bounds.
    import test_error_contract

    public = {qualname for name in LIBRARY
              for qualname in public_functions_defined_in(importlib.import_module(
                  f"loglosslab.{name}"))}
    assert sorted(public) == sorted(test_error_contract.PUBLIC)
    assert {"Channel.row", "Joint.marginal_x"} <= public
