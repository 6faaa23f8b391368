"""satpow's runtime needs the standard library only."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import satpow

PACKAGE = Path(satpow.__file__).parent


def absolute_imports(tree: ast.AST) -> list[str]:
    """The top-level module of every absolute import in ``tree``."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.split(".")[0] for name in names]


def test_modules_import_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    allowed = sys.stdlib_module_names | {"satpow"}
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        foreign = sorted(set(absolute_imports(tree)) - allowed)
        assert not foreign, f"{path.name} imports {foreign}"


def test_the_guard_sees_foreign_imports():
    tree = ast.parse("import numpy.linalg\nfrom sympy import Poly\nfrom . import core\nimport json")
    assert absolute_imports(tree) == ["numpy", "sympy", "json"]
