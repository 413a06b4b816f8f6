"""Import rules of the package, read from its source with ``ast``.

The package runs on the standard library alone, and the oracle shares no
counting machinery with the DP, the closed forms or the modules built on
them, so that the three count sources stay independent.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quiddity"
SOURCES = sorted(PACKAGE.glob("*.py"))


def imported_modules(path: Path) -> set[str]:
    """Dotted names a module imports; package-relative ones start with 'quiddity'."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
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
    # call would pay for at start-up; records are NamedTuples instead.
    assert "dataclasses" not in imported_modules(path)


# The DP, the closed forms and the modules built on them.
BUILT_ABOVE = {"quiddity.counter", "quiddity.formulas", "quiddity.crt", "quiddity.maps",
               "quiddity.cli"}


def test_oracle_shares_nothing_with_the_dp_or_the_formulas():
    assert not imported_modules(PACKAGE / "oracle.py") & BUILT_ABOVE


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
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used, f"{path.name} never uses {sorted(imported - used)}"
