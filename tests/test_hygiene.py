"""Source hygiene, checked on the syntax tree: no `assert` in the package
(`python -O` strips it, and with it the check), no imported name that the
importing file never uses, and no public function or class that only the
tests call.  Also the cold start: importing the command line loads no
`typing`, `dataclasses`, `json` or `csv`."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import minrep
from minrep.registry import find_record
from minrep.rootsys import make_root_system

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "minrep").glob("*.py"))
CHECKED = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


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


def _reads(node: ast.AST) -> set[str]:
    """Every name node reads, bare (f) or as an attribute (module.f)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def orphans(trees: dict[str, ast.Module], exported: set[str]) -> list[tuple[str, str]]:
    """(file, name) of every public top-level function or class of the
    trees that no top-level statement reads, its own definition aside,
    unless the name is exported."""
    reads = [(stmt, _reads(stmt)) for tree in trees.values() for stmt in tree.body]
    out = []
    for path, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in exported
                    and not any(node.name in names for stmt, names in reads
                                if stmt is not node)):
                out.append((path, node.name))
    return out


def test_orphan_finder_sees_the_cases_it_must():
    trees = {
        "a.py": ast.parse(
            "def called(): pass\n"
            "def recursive(n): return recursive(n - 1)\n"
            "def _private(): pass\n"
            "def exported(): pass\n"
            "class Unused: pass\n"
            "class Used: pass\n"),
        "b.py": ast.parse(
            "import a\n"
            "a.called()\n"
            "def f(x: a.Used): pass\n"),
    }
    assert orphans(trees, {"exported", "f"}) == [("a.py", "recursive"),
                                                  ("a.py", "Unused")]


def test_every_public_definition_has_a_caller_outside_the_tests():
    trees = {str(p.relative_to(ROOT)): _tree(p) for p in PACKAGE}
    assert orphans(trees, set(minrep.__all__)) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_assert_statements_in_the_package(path):
    lines = [node.lineno for node in ast.walk(_tree(path))
             if isinstance(node, ast.Assert)]
    assert lines == []


def test_value_types_keep_no_instance_dict():
    # a value type is a namedtuple subclass; only RootSystem, whose cached
    # properties live in its instance __dict__, leaves out __slots__
    modules = [importlib.import_module(f"minrep.{p.stem}") for p in PACKAGE
               if p.stem != "__init__"]
    types = {obj for mod in modules for obj in vars(mod).values()
             if isinstance(obj, type) and issubclass(obj, tuple)
             and obj.__module__ == mod.__name__}
    assert len(types) == 13
    assert sorted(t.__name__ for t in types if "__slots__" not in vars(t)) == ["RootSystem"]


def test_cold_start_loads_no_dataclasses():
    # every command pays for what `import minrep.cli` loads; typing's
    # NamedTuple compiles each field annotation, dataclasses brings inspect
    # with it, and json and csv serve only the renderers and the registry
    # files that need them.  -S keeps site hooks out of the count.
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = ("import sys, minrep.cli; "
            "print(sorted({'typing', 'dataclasses', 'json', 'csv'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout == "[]\n"
    # the value types stay frozen
    rs = make_root_system("G2")
    record = find_record("g2(2)")
    for value, field in ((rs, "label"), (record.rho, "factors"), (record, "name")):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
