"""Every public name is declared once, in its module's ``__all__``.

A name left in ``__all__`` after its definition is gone breaks
``from loglosslab import *`` and misleads a reader of the list.  The package
re-exports the library modules' lists and keeps none of its own; ``problemio``
and ``cli`` stay out of it, so importing the package loads neither PyYAML
nor argparse.
"""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import loglosslab

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


def test_importing_the_package_loads_neither_yaml_nor_argparse():
    # A fresh interpreter: this one has already imported the CLI's modules.
    left_out = ["yaml", "argparse", "loglosslab.cli", "loglosslab.problemio"]
    probe = f"import sys, loglosslab; print([m for m in {left_out!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SOURCE.parent)})
    assert out.stdout.strip() == "[]"
