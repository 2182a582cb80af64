"""Package-level checks: the public surface, python -O safety and exact
arithmetic."""

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
        # __all__ is read off the globals, so a helper such as an imported
        # typing or stdlib name would leak in: each must come from toriso
        assert getattr(toriso, name).__module__.startswith("toriso."), name


def test_no_assert_statements_in_src():
    # python -O strips asserts, so no verdict may rest on one
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} has assert statements at lines {lines}"


def test_no_object_new_in_src():
    # object.__new__ skips __post_init__, so a GramForm built that way
    # would skip its positive-definiteness gate
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "__new__" and isinstance(node.value, ast.Name) and node.value.id == "object"
        ]
        assert not lines, f"{path.name} calls object.__new__ at lines {lines}"


def test_no_floats_in_src():
    # exact arithmetic only: no float literal, no float(), no math.sqrt,
    # math.log or math.exp, whether called through math or imported
    inexact = {"sqrt", "log", "exp"}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append((node.lineno, repr(node.value)))
            elif isinstance(node, ast.Name) and node.id == "float":
                found.append((node.lineno, "float"))
            elif isinstance(node, ast.Attribute) and node.attr in inexact:
                if isinstance(node.value, ast.Name) and node.value.id == "math":
                    found.append((node.lineno, f"math.{node.attr}"))
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found += [(node.lineno, f"math.{a.name}") for a in node.names if a.name in inexact]
        assert not found, f"{path.name} uses inexact arithmetic: {found}"


def test_every_import_is_used():
    # a name a module imports and never reads is dead weight that deletions
    # leave behind; lines marked "# noqa: F401" keep a binding on purpose
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    # "import a.b" binds a
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                        unused.append((alias.lineno, name))
        assert not unused, f"{path.name} imports names it never uses: {unused}"
