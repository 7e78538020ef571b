"""Every name a module in ``src/`` imports is used in that module.

A name counts as used when the module reads it, names it in an annotation
(a string annotation included) or lists it in its ``__all__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))


def imported_names(tree: ast.Module):
    """(name, line) of every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def annotation_names(annotation: ast.expr):
    """The names an annotation reads, those inside its strings included."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                yield from annotation_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:  # a Literal's text, not a type
                pass


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = None
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        if annotation is not None:
            used.update(annotation_names(annotation))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.relative_to(SRC)} imports unused names: {unused}"


def test_a_name_only_imported_is_reported():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from typing import TYPE_CHECKING\n"
        "from .a import B, C, D\n"
        "if TYPE_CHECKING:\n"
        "    from .e import F\n"
        "__all__ = ['D']\n"
        "def g(x: 'F | None') -> list[C]:\n"
        "    return np.zeros(1)\n"
    )
    used = used_names(tree)
    names = [name for name, _ in imported_names(tree)]
    assert [n for n in names if n not in used] == ["os", "B"]
