"""The imports of the package: `branchops` is below the diagram language,
the law suite and the CLI, at module level and inside functions alike, so no
import cycle runs through it; and no module-level import is left unused."""

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


def test_lawsuite_builds_no_theta_table():
    # Every law runs on the report's context, so the law suite needs no
    # theta table of its own.
    assert "thetafoam" not in relative_imports("lawsuite")


def unused_imports(name: str) -> list[str]:
    """The names that a module-level import of module `name` binds and that
    the module neither reads nor lists in `__all__`."""
    path = PACKAGE / f"{name}.py"
    tree = ast.parse(path.read_text(), str(path))
    bound = [(alias.asname or alias.name).split(".")[0]
             for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = {elt.value for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)
                for elt in node.value.elts}
    return [n for n in bound if n not in read | exported]


def test_every_module_level_import_is_used():
    modules = sorted(path.stem for path in PACKAGE.glob("*.py"))
    assert "lawsuite" in modules
    unused = {name: unused_imports(name) for name in modules}
    assert {name: names for name, names in unused.items() if names} == {}
