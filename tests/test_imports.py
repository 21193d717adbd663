"""Every name a package module imports is used in that module.

A static scan with ``ast``: a name counts as used when it appears as a
``Name`` node anywhere in the module (annotations included), and in
``__init__.py`` also when ``__all__`` lists it as a re-export.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bqnet"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree):
    """(name, line) for every name bound by an import statement."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out.append((alias.asname or alias.name, node.lineno))
    return out


def exported_names(tree):
    """The strings listed in a module-level ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in used]


def test_scan_flags_only_unused_names():
    source = ("import os\nimport numpy as np\nfrom a.b import c, d as e\n"
              "__all__ = ['c']\nnp.zeros(1)\n")
    assert unused_imports(source) == [("os", 1), ("e", 3)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_package_exports_resolve():
    import bqnet

    assert all(hasattr(bqnet, name) for name in bqnet.__all__)
