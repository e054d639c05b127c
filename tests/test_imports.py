"""No module of the package or the tests imports a name it never reads."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/wreathchar/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(source: str) -> list[str]:
    """The names bound by an import and never read; a name listed in
    ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_finds_an_unused_import():
    source = "import os\nfrom json import dumps, loads\nfrom . import kept\n__all__ = ['kept']\nloads('1')\n"
    assert unused_imports(source) == ["line 1: os", "line 2: dumps"]


@pytest.mark.parametrize("path", FILES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
