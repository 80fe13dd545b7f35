"""Every name a module exports in ``__all__`` resolves on that module.

A name left in ``__all__`` after its definition is gone breaks
``from loglosslab import *`` and misleads a reader of the list.
"""

import importlib
import types
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "loglosslab"
MODULES = ["loglosslab"] + [f"loglosslab.{path.stem}" for path in sorted(SOURCE.glob("*.py"))
                            if path.stem not in ("__init__", "__main__")]


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
