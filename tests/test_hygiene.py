"""Every import is used, and every private name, exported name and class member is read."""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "padic_oscillator"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = [alias.asname or alias.name.split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in imported if name != "annotations" and name not in used]
    assert not unused, f"{path.name} imports but never uses {unused}"


def _defined(statement) -> list:
    """The names a module-level statement defines: a function, a class or assignment targets."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = statement.targets if isinstance(statement, ast.Assign) else \
        [statement.target] if isinstance(statement, ast.AnnAssign) else []
    return [target.id for target in targets if isinstance(target, ast.Name)]


def _read(statement) -> set:
    """Every name a statement reads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(statement)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def test_every_private_module_level_name_is_referenced_outside_its_definition():
    # a private helper that nothing reads is a left-behind copy of a rule that moved
    statements = [(path.name, statement) for path in sorted(PACKAGE.glob("*.py"))
                  for statement in ast.parse(path.read_text()).body]
    unread = [f"{module}:{name}" for module, statement in statements
              for name in _defined(statement)
              if name.startswith("_") and not name.startswith("__")
              and not any(name in _read(other) for _, other in statements if other is not statement)]
    assert not unread, f"private names defined but never read: {unread}"


ROOT = PACKAGE.parent.parent
OUTSIDE_READERS = [ROOT / "README.md"] + sorted((ROOT / "perfbench").glob("*.py"))


def test_every_exported_name_is_read_outside_the_tests():
    # a name only the tests read is a test helper and belongs under tests/
    exported = [alias.asname or alias.name
                for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    statements = [statement for path in MODULES for statement in ast.parse(path.read_text()).body]
    outside = "\n".join(path.read_text() for path in OUTSIDE_READERS)
    unread = [name for name in exported
              if not any(name in _read(statement) for statement in statements
                         if name not in _defined(statement))
              and not re.search(rf"\b{re.escape(name)}\b", outside)]
    assert not unread, f"exported but read only by the tests: {unread}"


def _methods(tree):
    """(class name, def) for every non-dunder method, property or classmethod of a class."""
    return [(node.name, item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (item.name.startswith("__") and item.name.endswith("__"))]


def _attribute_reads(node) -> list:
    return [sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)]


def test_every_class_member_is_read_outside_its_own_body():
    # a method only the tests call is a test helper; an override is read by its base class
    trees = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    reads = [attr for tree in trees.values() for attr in _attribute_reads(tree)]
    outside = "\n".join(path.read_text() for path in OUTSIDE_READERS)
    unread = []
    for module, tree in trees.items():
        namespace = importlib.import_module(f"padic_oscillator.{module}")
        for cls_name, method in _methods(tree):
            bases = getattr(namespace, cls_name).__mro__[1:]
            if any(hasattr(base, method.name) for base in bases):
                continue
            if reads.count(method.name) > _attribute_reads(method).count(method.name):
                continue
            if not re.search(rf"\.{re.escape(method.name)}\b", outside):
                unread.append(f"{module}.{cls_name}.{method.name}")
    assert not unread, f"class members read only by the tests or by themselves: {unread}"
