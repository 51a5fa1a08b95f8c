"""The imports of the package: every import is at module level, the relative
imports form no cycle, `branchops` is below the diagram language, the law
suite and the CLI, and no module-level import is left unused."""

import ast
from pathlib import Path

import foamalg

PACKAGE = Path(foamalg.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def parse_module(name: str) -> ast.Module:
    path = PACKAGE / f"{name}.py"
    return ast.parse(path.read_text(), str(path))


def relative_imports(name: str) -> set[str]:
    """The package modules that module `name` imports by a relative import
    anywhere in it: `from .m import x` gives m, `from . import m` gives m,
    and `from . import x` of a name that is no module gives `__init__`."""
    found = set()
    for node in ast.walk(parse_module(name)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name if alias.name in MODULES
                             else "__init__" for alias in node.names)
    return found


def test_no_module_imports_inside_a_function():
    inside = {name: [node.lineno for fn in ast.walk(parse_module(name))
                     if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                     for node in ast.walk(fn)
                     if isinstance(node, (ast.Import, ast.ImportFrom))]
              for name in MODULES}
    assert {name: lines for name, lines in inside.items() if lines} == {}


def test_the_relative_imports_form_no_cycle():
    # Peel off the modules whose package imports are all peeled already;
    # what is left imports a cycle or is on one.
    graph = {name: relative_imports(name) for name in MODULES}
    assert graph["cli"] >= {"__init__", "lawsuite", "groupfoam"}
    while leaves := {m for m, deps in graph.items() if not deps & graph.keys()}:
        graph = {m: deps for m, deps in graph.items() if m not in leaves}
    assert graph == {}


def test_lawsuite_imports_no_group_ring():
    # The law suite walks the bialgebra laws too, and tells a group ring by
    # its class's `diagonal_map`, so it needs nothing of `groupfoam`.
    assert "groupfoam" not in relative_imports("lawsuite")


def test_branchops_imports_none_of_its_users():
    users = {"foamlang", "lawsuite", "groupfoam", "cli"}
    assert relative_imports("branchops") & users == set()


def test_lawsuite_builds_no_theta_table():
    # Every law runs on the report's context, so the law suite needs no
    # theta table of its own.
    assert "thetafoam" not in relative_imports("lawsuite")


def unused_imports(name: str) -> list[str]:
    """The names that a module-level import of module `name` binds and that
    the module neither reads nor lists in `__all__`."""
    tree = parse_module(name)
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
    assert "lawsuite" in MODULES
    unused = {name: unused_imports(name) for name in MODULES}
    assert {name: names for name, names in unused.items() if names} == {}
