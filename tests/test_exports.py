"""Every name a module exports resolves, so a deleted function cannot
leave a stale entry in __all__ behind; and every exported function or
class is used by the package or by an acceptance test, so none is kept
only for its own test."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import drcz

MODULES = ["drcz"] + [f"drcz.{info.name}" for info in pkgutil.iter_modules(drcz.__path__)]

# where a use counts: the package's own modules and the acceptance claims
USERS = [*sorted(Path(drcz.__file__).parent.glob("*.py")),
         Path(__file__).with_name("test_acceptance.py")]


def _used_names() -> set[str]:
    """Every name read as a variable or an attribute.  Import lines,
    def/class lines, __all__ strings, comments and docstrings add none."""
    used = set()
    for path in USERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} exports nothing"
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_every_exported_function_and_class_has_a_user():
    used = _used_names()
    unused = []
    for name in MODULES[1:]:
        module = importlib.import_module(name)
        for attr in module.__all__:
            obj = getattr(module, attr)
            defined_here = getattr(obj, "__module__", None) == name
            if callable(obj) and defined_here and attr not in used:
                unused.append(f"{name}.{attr}")
    assert unused == []
