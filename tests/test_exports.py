"""Every exported name exists, so a deleted helper leaves no dangling
export, and every private helper and stored attribute is read, so none is
left behind dead."""
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


# methods that change their receiver in place: calling one is a write
_MUTATORS = {"append", "extend", "insert", "setdefault", "update", "add", "clear"}


def _unread_attributes(trees):
    """The attributes the trees store (`x.attr = ...`, `x.attr += ...`) that
    no statement reads. Changing the value in place (`x.attr.append(...)`,
    `x.attr[i] = ...`) is not a read; naming it to `attrgetter` or
    `getattr` is. An array's flag (`x.flags.writeable = False`) is numpy's
    setting, not the package's state."""
    stored, read = set(), set()
    for tree in trees:
        writes = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATORS:
                writes.add(id(node.func.value))
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                writes.add(id(node.value))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
                    "attrgetter", "getattr"):
                read.update(a.value for a in node.args
                            if isinstance(a, ast.Constant) and isinstance(a.value, str))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    if getattr(node.value, "attr", None) != "flags":
                        stored.add(node.attr)
                elif id(node) not in writes:
                    read.add(node.attr)
    return sorted(stored - read)


def test_no_attribute_stored_without_a_read():
    # an attribute that the package stores and that no statement of the
    # package reads is dead state
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(opineq.__file__).parent.glob("*.py"))]
    assert _unread_attributes(trees) == []


@pytest.mark.parametrize("source,found", [
    ("class P:\n    def __init__(self):\n        self.free = 0\n"
     "    def draw(self, k):\n        self.free -= k\n", ["free"]),
    ("class B:\n    def __init__(self):\n        self.pairs = []\n"
     "    def pair(self, a):\n        self.pairs.append(a)\n", ["pairs"]),
    ("buf.isometries = {}\nbuf.isometries.setdefault(2, []).append(1)\n", ["isometries"]),
    ("self.rows = [0]\nself.rows[0] = 1\n", ["rows"]),
    ("p.a, p.b = 1, 2\nprint(p.a)\n", ["b"]),
    ("self.n = 1\nprint(buf.n)\n", []),
    ("self.pairs = []\nself.pairs.append(1)\nfor p in self.pairs:\n    print(p)\n", []),
    ("x.dtype = 1\nkey = attrgetter('dtype')\n", []),
    ("w.flags.writeable = False\n", []),
], ids=["augmented-only", "appended-only", "setdefault-only", "subscript-only", "one-of-a-tuple",
        "read", "appended-and-read", "attrgetter", "array-flag"])
def test_unread_attribute_rule_on_planted_cases(source, found):
    assert _unread_attributes([ast.parse(source)]) == found


def _functions(tree):
    """(name, parameters that take a default, first positional index a
    call fills) for each function the rule covers: a `_x` function or
    method, and any function nested in another function."""
    out = []

    def visit(node, nested, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if nested or child.name.startswith("_") and not child.name.startswith("__"):
                    a = child.args
                    positional = a.posonlyargs + a.args
                    skip = 1 if in_class and positional else 0
                    names = [p.arg for p in positional]
                    keyword = names[len(names) - len(a.defaults):] + [
                        p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                    out.append((child.name, keyword, names[skip:]))
                visit(child, True, False)
            else:
                visit(child, nested, isinstance(child, ast.ClassDef))
    visit(tree, False, False)
    return out


def _call_sites(trees):
    """Per function name, the (positional args, keyword args) of each place
    that names it: a call, a `partial(f, ...)`, or a bare reference (a
    value called elsewhere, taken to pass no keyword parameter)."""
    sites = {}
    for tree in trees:
        called = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if isinstance(func, ast.Name) and func.id == "partial" and args:
                func, args = args[0], args[1:]
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is not None:
                called.add(id(func))
                sites.setdefault(name, []).append((args, node.keywords))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                    and id(node) not in called:
                sites.setdefault(node.id, []).append(([], []))
    return sites


def _passed(param, positional, args, keywords):
    """The node that passes `param` at one site; ... when a `*` or `**`
    argument may pass it; None when nothing does."""
    if any(k.arg is None for k in keywords) or any(isinstance(a, ast.Starred) for a in args):
        return ...
    for k in keywords:
        if k.arg == param:
            return k.value
    i = positional.index(param) if param in positional else len(args)
    return args[i] if i < len(args) else None


def _unused_keywords(trees):
    sites = _call_sites(trees)
    found = []
    for tree in trees:
        for name, keyword, positional in _functions(tree):
            for param in keyword:
                passed = [_passed(param, positional, *site) for site in sites.get(name, [])]
                literal = {ast.dump(p) for p in passed if isinstance(p, ast.Constant)}
                if all(p is None for p in passed) or (
                        len(literal) == 1 and all(isinstance(p, ast.Constant) for p in passed)):
                    found.append(f"{name}({param}=)")
    return found


def test_no_keyword_parameter_without_a_use():
    # a keyword parameter of a private or nested function that no call
    # passes, or that every call passes as the same literal, is a second
    # path that nothing takes
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(opineq.__file__).parent.glob("*.py"))]
    assert _unused_keywords(trees) == []


@pytest.mark.parametrize("source,found", [
    ("def _f(a, b=1):\n    return a\n_f(2)\n", ["_f(b=)"]),
    ("def _f(a, b=1):\n    return a\n_f(2, b=True)\n_f(3, True)\n", ["_f(b=)"]),
    ("def g():\n    def h(x, y=2):\n        return x\n    h(1)\n", ["h(y=)"]),
    ("def _f(a, b=1):\n    return a\n_f(2, b=3)\n_f(3)\n", []),
    ("def _f(a, b=1):\n    return a\n_f(2, b=3)\n_f(3, b=4)\n", []),
    ("def _f(a, b=1):\n    return a\n_f(2, b=c)\n", []),
    ("def _f(a, b=1):\n    return a\n_f(*xs)\n", []),
    ("from functools import partial\ndef _f(a, b=1):\n    return a\ng = partial(_f, b=2)\n"
     "_f(1)\n", []),
    ("class C:\n    def _m(self, a, b=1):\n        return a\n    def n(self):\n"
     "        return self._m(1, 2) + self._m(1)\n", []),
], ids=["never-passed", "same-literal", "nested", "sometimes-passed", "two-literals",
        "a-name", "starred", "partial", "method-positional"])
def test_keyword_rule_on_planted_cases(source, found):
    assert _unused_keywords([ast.parse(source)]) == found


def _maps_outside_images(tree):
    """The top-level functions of a checks module that read `.phi`: outside
    CheckInstance, whose `images` is the one method that applies the maps,
    each part's to that part's operands, so that a check reading `.phi`
    itself would run its output side once per input size."""
    found = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef) and stmt.name == "CheckInstance":
            continue
        if any(isinstance(n, ast.Attribute) and n.attr == "phi" for n in ast.walk(stmt)):
            found.append(getattr(stmt, "name", f"line {stmt.lineno}"))
    return found


def test_checks_reach_the_maps_only_through_images():
    path = Path(opineq.__file__).parent / "checks.py"
    assert _maps_outside_images(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("source,found", [
    ("def check_k(inst):\n    pain, pa = each_stacked(inst.phi, [inv_psd(inst.a), inst.a])\n",
     ["check_k"]),
    ("def check_m(inst, f):\n    return each_stacked(lambda x: inst.phi(f(x)), [inst.a])\n",
     ["check_m"]),
    ("def _eye(inst):\n    return np.eye(inst.phi.output_dim)\n", ["_eye"]),
    ("class CheckInstance:\n    def images(self, operands):\n"
     "        return [self.phi(x) for x in operands(self.a, self.b)]\n"
     "def check_k(inst):\n    pain, pa = inst.images(lambda a, b: [inv_psd(a), a])\n", []),
], ids=["each-stacked", "minkowski-lambda", "output-dim", "through-images"])
def test_images_rule_on_planted_cases(source, found):
    assert _maps_outside_images(ast.parse(source)) == found
