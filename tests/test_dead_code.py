"""Dead code in src/flaglets, found with ast alone (no linter is installed).

Two rules, each over every module of the package:

- a module uses every name it imports (a name in its __all__ counts as used,
  so the package can re-export its API);
- a module-level function or class is in its module's __all__ or named in a
  module-level statement of src/flaglets other than its own definition.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "flaglets"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCE.glob("*.py")}


def exported(tree) -> set[str]:
    """The strings of a module's __all__, if it has one."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in stmt.targets
        ):
            return set(ast.literal_eval(stmt.value))
    return set()


def named_in(node) -> set[str]:
    """Identifiers a node names: names, attributes and what its imports take."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.split(".")[0])
    return found


def unused_imports(tree) -> list[tuple[str, int]]:
    """(name, line) of every name a module imports and never reads."""
    read = exported(tree) | {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    unused = []
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    unused.append((name, stmt.lineno))
    return unused


def unused_definitions(modules: dict, module: str) -> list[tuple[str, int]]:
    """(name, line) of every module-level function or class of `module` that
    is not in its __all__ and that no other module-level statement of
    `modules` names (its own body, a recursive call, does not count)."""
    statements = [stmt for tree in modules.values() for stmt in tree.body]
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        (stmt.name, stmt.lineno)
        for stmt in modules[module].body
        if isinstance(stmt, defs)
        and stmt.name not in exported(modules[module])
        and not any(stmt.name in named_in(other) for other in statements if other is not stmt)
    ]


def test_every_module_is_parsed():
    assert {"__init__", "sphere_harmonics", "kernel_tiling", "cli"} <= set(MODULES)


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_import_is_used(module):
    assert unused_imports(MODULES[module]) == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_module_level_definition_is_used(module):
    assert unused_definitions(MODULES, module) == []


def test_the_rules_find_what_they_look_for():
    one = ast.parse(
        "import os\nimport sys\nfrom x import y as z\n__all__ = ['api']\n"
        "def api(): pass\ndef helper(): return helper\nclass Left: pass\n"
        "def used(): pass\nsys.exit(used)\n"
    )
    other = ast.parse("from one import Left\n")
    assert unused_imports(one) == [("os", 1), ("z", 3)]
    assert unused_definitions({"one": one}, "one") == [("helper", 6), ("Left", 7)]
    assert unused_definitions({"one": one, "other": other}, "one") == [("helper", 6)]
