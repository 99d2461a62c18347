"""Every imported name is read: an ``ast`` scan of the package and the tests.

A name counts as read when the module loads it (``np`` in ``np.array``
included), names it in a string annotation, or lists it in ``__all__``.
``__future__`` imports and the re-exports of ``__init__.py`` are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for folder in (ROOT / "src" / "gibbsgrain", ROOT / "tests")
                 for p in folder.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """{bound name: line} of the module's imports, ``__future__`` left out."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree):
    """Names the module loads, names in its string annotations, and the
    entries of its ``__all__``."""
    read = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(e.value for e in node.value.elts)
    for note in annotations:
        for part in ast.walk(note) if note is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                read |= read_names(ast.parse(part.value, mode="eval"))
    return read


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = read_names(tree)
    unused = sorted((line, name) for name, line in imported_names(tree).items()
                    if name not in read)
    assert unused == [], f"{path.name}: imported and never read: {unused}"


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau as t\n"
                     "def f(x: 'Sequence') -> float:\n    return pi\n"
                     "__all__ = ['t']\n")
    names = imported_names(tree)
    assert names == {"os": 1, "pi": 2, "t": 2}
    assert sorted(set(names) - read_names(tree)) == ["os"]
