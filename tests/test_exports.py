"""Every exported name exists, so a deleted helper leaves no dangling
export, and every private helper is read, so none is left behind dead."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import opineq

MODULES = ["opineq"] + [f"opineq.{info.name}" for info in pkgutil.iter_modules(opineq.__path__)
                        if info.name != "__main__"]     # importing it runs the CLI


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def _private_defs(stmt):
    """The private names a top-level statement defines: a `_x` function,
    class or constant (dunders such as __all__ are not private)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _loads(stmt):
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
            if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
            or isinstance(n, ast.Attribute)}


def test_no_dead_private_helpers():
    # a module-level private name that no other statement of the package
    # reads is dead code
    stmts = [(path.name, stmt) for path in sorted(Path(opineq.__file__).parent.glob("*.py"))
             for stmt in ast.parse(path.read_text()).body]
    reads = [_loads(stmt) for _, stmt in stmts]
    dead = [f"{file}:{name}" for i, (file, stmt) in enumerate(stmts)
            for name in _private_defs(stmt)
            if not any(name in r for j, r in enumerate(reads) if j != i)]
    assert dead == []
