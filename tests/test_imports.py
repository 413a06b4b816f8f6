"""Import rules of the package, read from its source with ``ast``.

The package runs on the standard library alone, and the oracle shares no
counting machinery with the DP, the closed forms or the modules built on
them, so that the three count sources stay independent.
"""

import ast
import builtins
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quiddity"
SOURCES = sorted(PACKAGE.glob("*.py"))


def imported_modules(path: Path) -> set[str]:
    """Dotted names a module imports; package-relative ones start with 'quiddity'."""
    return imported_modules_of(ast.walk(ast.parse(path.read_text(), str(path))))


def imported_modules_of(nodes) -> set[str]:
    """Dotted names the import statements among ``nodes`` import."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if not node.level:
                names.add(node.module)
            elif node.module:
                names.add(f"quiddity.{node.module}")
            else:  # from . import counter, oracle
                names.update(f"quiddity.{alias.name}" for alias in node.names)
    return names


def test_sources_are_found():
    assert {"cli.py", "counter.py", "oracle.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_runtime_imports_are_standard_library(path):
    outside = {name for name in imported_modules(path)
               if name.split(".")[0] not in sys.stdlib_module_names
               and name.split(".")[0] != "quiddity"}
    assert not outside, f"{path.name} imports {sorted(outside)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_dataclasses(path):
    # dataclasses pulls in inspect, ast, dis and tokenize, which every CLI
    # call would pay for at start-up; records are collections.namedtuples instead.
    assert "dataclasses" not in imported_modules(path)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_rational_arithmetic(path):
    # Every count is an exact int; fractions would also load decimal and
    # numbers on every call that reaches the closed forms.
    assert not imported_modules(path) & {"fractions", "decimal", "numbers"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_future(path):
    # Every annotation the package writes evaluates on Python 3.10, and the
    # first module that imported __future__ would load it on every request.
    assert "__future__" not in imported_modules(path)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_the_cli_at_its_top(path):
    # cli imports a handler's module when it runs the handler, and a body
    # that lives outside cli imports it inside the handler, for its report
    # writer; so neither needs the other half loaded first.
    tree = ast.parse(path.read_text(), str(path))
    assert "quiddity.cli" not in imported_modules_of(tree.body)


# The DP, the closed forms and the modules built on them.
BUILT_ABOVE = {"quiddity.counter", "quiddity.formulas", "quiddity.crt", "quiddity.route",
               "quiddity.maps", "quiddity.cli"}


def test_oracle_shares_nothing_with_the_dp_or_the_formulas():
    assert not imported_modules(PACKAGE / "oracle.py") & BUILT_ABOVE


def test_the_oracle_imports_only_the_spec_and_the_ring():
    package = {name for name in imported_modules(PACKAGE / "oracle.py")
               if name.startswith("quiddity")}
    assert package == {"quiddity.spec", "quiddity.sl2", "quiddity.modring"}


def test_the_set_spec_imports_no_count_source():
    # Every count source reads the set spec and the budget, so the spec
    # imports none of them, not even the oracle.
    assert not imported_modules(PACKAGE / "spec.py") & (BUILT_ABOVE | {"quiddity.oracle"})


def test_dp_takes_nothing_from_the_oracle():
    # The DP reads letters, constraints and the budget from ``spec``, so it
    # cannot reach the oracle's walkers.
    assert "quiddity.oracle" not in imported_modules(PACKAGE / "counter.py")
    assert "quiddity.spec" in imported_modules(PACKAGE / "counter.py")


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used, f"{path.name} never uses {sorted(imported - used)}"


def module_bindings(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level, including those it imports
    under ``if TYPE_CHECKING:`` for type checkers alone."""
    names = set()
    for node in tree.body:
        for stmt in node.body if isinstance(node, ast.If) else [node]:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                names.update((alias.asname or alias.name).split(".")[0] for alias in stmt.names)
            elif isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def annotation_names(tree: ast.Module) -> set[str]:
    """The names every annotation in a module reads, quoted ones too."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                             if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_annotation_names_something_the_module_binds(path):
    # A quoted annotation, one on a local variable, or one in a nested
    # function that never runs goes unchecked at run time; a type checker,
    # or typing.get_type_hints, would not resolve a missing name.
    tree = ast.parse(path.read_text(), str(path))
    unbound = annotation_names(tree) - module_bindings(tree) - set(dir(builtins))
    assert not unbound, f"{path.name} annotates with unbound {sorted(unbound)}"
