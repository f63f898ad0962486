"""Every name a library module imports is used in that module, and every
private top-level name it defines is read somewhere in the package.

__init__.py is skipped: its imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

MODULES = sorted(p for p in (Path(__file__).parents[1] / "src" / "noisylabels")
                 .glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def names_read(source: str) -> set[str]:
    """Every name an expression reads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
            or isinstance(node, ast.Attribute)}


def unread_private_names(source: str, read: set[str]) -> list[str]:
    """The _-prefixed functions, classes and variables the module defines at
    its top level that are not in read."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_") and name not in read]


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import os\nfrom json import dumps, loads\nprint(loads('1'))\n"
    assert unused_imports(source) == ["os (line 1)", "dumps (line 2)"]


def test_every_private_top_level_name_is_read():
    read = set().union(*(names_read(p.read_text(encoding="utf-8"))
                         for p in MODULES[0].parent.glob("*.py")))
    assert [f"{module.name}: {name}" for module in MODULES
            for name in unread_private_names(module.read_text(encoding="utf-8"), read)
            ] == []


def test_an_unread_private_name_is_found():
    source = ("_CAP = 4\n_a, b = 1, 2\nclass _Kept: pass\n"
              "def _left(): pass\ndef public(): return _CAP + _Kept.x\n")
    assert unread_private_names(source, names_read(source)) == ["_a", "_left"]
