"""Every name a module exports resolves, so a deleted function cannot
leave a stale entry in __all__ behind."""
import importlib
import pkgutil

import pytest

import drcz

MODULES = ["drcz"] + [f"drcz.{info.name}" for info in pkgutil.iter_modules(drcz.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} exports nothing"
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
