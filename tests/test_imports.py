"""Every imported name is used, every private module-level name is named
somewhere (``ast`` scans of the package, the tests and the benchmark), and
``ops.__all__`` names every public op and only names that exist.

No linter ships with the project, so these tests do the two checks that keep
dead imports and orphaned helpers out. An import counts as used when it
appears as an identifier anywhere in its module (string annotations
included) or in ``__all__``; ``from __future__`` imports are exempt. A
module-level ``def _x`` or ``_X = ...`` of the package counts as named when
some module of the package, ``tests/`` or ``perfbench/`` reads it as a name
or an attribute, or spells it in a string (as ``monkeypatch.setattr`` does).
"""

import ast
import inspect
import pathlib

import pytest

from demosaick import ops

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "demosaick").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def _imported(tree: ast.Module) -> dict:
    """Name bound by each import statement -> its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    out[a.asname or a.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            ann = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _used(ast.parse(ann.value, mode="eval"))
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= set(ast.literal_eval(node.value))
    return names


def test_the_scan_flags_an_unused_import_and_passes_used_ones():
    tree = ast.parse("from __future__ import annotations\nimport os, numpy as np\n"
                     "from a.b import c, d as e\n__all__ = ['c']\n"
                     "def f(x: 'np.ndarray'):\n    return e\n")
    assert set(_imported(tree)) - _used(tree) == {"os"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = sorted((line, name) for name, line in _imported(tree).items() if name not in used)
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)


def _private_definitions(tree: ast.Module) -> dict:
    """Module-level ``def _x`` and ``_X = ...`` names (dunders aside) -> line."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [t.id for t in (node.targets if isinstance(node, ast.Assign)
                                      else [node.target]) if isinstance(t, ast.Name)]
        else:
            continue
        out.update((name, node.lineno) for name in targets
                   if name.startswith("_") and not name.startswith("__"))
    return out


def _named(tree: ast.Module) -> set:
    """Names read, attributes and identifier strings anywhere in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names.add(node.value)
    return names


def test_the_scan_flags_an_orphaned_private_name():
    tree = ast.parse("_A = 1\n_B: int = 2\n__all__ = []\ndef _f():\n    return _A\n"
                     "def _g():\n    pass\nsetattr(m, '_B', 3)\n")
    assert set(_private_definitions(tree)) - _named(tree) == {"_f", "_g"}


@pytest.fixture(scope="module")
def everything_named():
    readers = MODULES + sorted((ROOT / "perfbench").glob("*.py"))
    return set().union(*(_named(ast.parse(p.read_text(encoding="utf-8"))) for p in readers))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_private_name_is_named(path, everything_named):
    defined = _private_definitions(ast.parse(path.read_text(encoding="utf-8")))
    orphans = sorted((line, name) for name, line in defined.items()
                     if name not in everything_named)
    assert not orphans, f"{path.name}: private names nothing names " + ", ".join(
        f"{name} (line {line})" for line, name in orphans)


def test_ops_all_lists_every_public_function():
    public = {name for name, f in vars(ops).items() if inspect.isfunction(f)
              and f.__module__ == ops.__name__ and not name.startswith("_")}
    assert public - set(ops.__all__) == set()
    assert [name for name in ops.__all__ if not hasattr(ops, name)] == []
