"""Every definition in the package has a user besides the unit tests.

A function, class or method of src/mssq counts as used when some module of
src/mssq, demos/, tools/, perfbench/ or the acceptance gate names it: as a
name, an attribute or an import.  Dunder methods are called by Python itself
and are left out.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "mssq").glob("*.py"))
USERS = [
    *PACKAGE,
    *(path for folder in ("demos", "tools", "perfbench") for path in sorted((ROOT / folder).glob("*.py"))),
    ROOT / "tests" / "test_acceptance.py",
]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def defined_names(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {node.name for node in ast.walk(tree) if isinstance(node, DEFINITIONS)}
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def named_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_package_definition_has_a_user_outside_the_unit_tests():
    used = set().union(*map(named_names, USERS))
    unused = {
        f"{path.stem}.{name}" for path in PACKAGE for name in defined_names(path) if name not in used
    }
    assert not unused, f"defined in src/mssq but named only by the unit tests, if at all: {sorted(unused)}"
