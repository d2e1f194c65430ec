"""Source hygiene, checked on the syntax tree: no `assert` in the package
(`python -O` strips it, and with it the check) and no imported name that
the importing file never uses."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "minrep").glob("*.py"))
CHECKED = PACKAGE + sorted((ROOT / "tests").glob("*.py")) + sorted(
    (ROOT / "scripts").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of every name an import binds that the module never
    reads; a name listed in a literal __all__ counts as read."""
    bound: list[tuple[int, str]] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.append((node.lineno,
                              alias.asname or alias.name.partition(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in used]


def test_unused_import_finder_sees_the_cases_it_must():
    tree = ast.parse(
        "import os\n"
        "import a.b\n"
        "from x import used, unused as alias\n"
        "from y import exported\n"
        "__all__ = ['exported']\n"
        "print(used, a.b)\n")
    assert unused_imports(tree) == [(1, "os"), (3, "alias")]


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(_tree(path)) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_assert_statements_in_the_package(path):
    lines = [node.lineno for node in ast.walk(_tree(path))
             if isinstance(node, ast.Assert)]
    assert lines == []
