"""The import graph of the package: `branchops` is below the diagram
language, the law suite and the CLI, at module level and inside functions
alike, so no import cycle runs through it."""

import ast
from pathlib import Path

import foamalg

PACKAGE = Path(foamalg.__file__).parent


def relative_imports(name: str) -> set[str]:
    """The package modules that module `name` imports by a relative import
    anywhere in it: `from .m import x` gives m, `from . import m` gives m."""
    path = PACKAGE / f"{name}.py"
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_branchops_imports_none_of_its_users():
    # lawsuite imports groupfoam inside functions only, so this shows that
    # imports inside functions are read.
    assert "groupfoam" in relative_imports("lawsuite")
    users = {"foamlang", "lawsuite", "groupfoam", "cli"}
    assert relative_imports("branchops") & users == set()
