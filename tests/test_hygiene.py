"""Every name a library module imports at module level is used in that module."""

from __future__ import annotations

import ast
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
