"""Package-level checks: the public surface and python -O safety."""

import ast
from pathlib import Path

import toriso

SRC = Path(toriso.__file__).resolve().parent


def test_all_is_exactly_what_init_imports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not alias.name.startswith("_") and alias.name != "annotations"
    }
    assert set(toriso.__all__) == imported
    assert len(toriso.__all__) == len(imported)
    for name in toriso.__all__:
        assert getattr(toriso, name) is not None


def test_no_assert_statements_in_src():
    # python -O strips asserts, so no verdict may rest on one
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} has assert statements at lines {lines}"
