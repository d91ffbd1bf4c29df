"""Every exported name exists, so a deleted helper leaves no dangling export."""
import importlib
import pkgutil

import pytest

import opineq

MODULES = ["opineq"] + [f"opineq.{info.name}" for info in pkgutil.iter_modules(opineq.__path__)
                        if info.name != "__main__"]     # importing it runs the CLI


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
