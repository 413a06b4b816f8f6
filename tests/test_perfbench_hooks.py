"""The names the benchmark's traced worker hooks into still resolve.

``perfbench/worker.py`` wraps the oracle's private walkers, the DP entry
point and the member sets' ``members`` by name, and reads their arguments
and the ``_members`` cache; a rename there would leave its spans silently
empty.  The names are read from its source with ``ast``: the worker is
neither imported nor run here.
"""

import ast
import inspect
from pathlib import Path

from quiddity import counter, maps, oracle
from quiddity.modring import Modulus, Residue
from quiddity.sl2 import identity
from quiddity.spec import SetSpec

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
TREE = ast.parse(WORKER.read_text(), str(WORKER))
MOD4 = Modulus(4)


def _assigned(name: str) -> ast.expr:
    """The value the worker assigns to a module-level name."""
    for node in TREE.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name for target in node.targets):
            return node.value
    raise AssertionError(f"{WORKER.name} assigns no {name}")


def _parameters(func) -> list[str]:
    return list(inspect.signature(func).parameters)


def test_the_oracle_walkers_resolve():
    walkers = ast.literal_eval(_assigned("ORACLE_WALKERS"))
    assert {"_count_naive", "_count_mitm", "_half_products"} <= set(walkers)
    for name in walkers:
        assert callable(getattr(oracle, name)), name
    # its notes read _count_naive's spec and _half_products' lists of letters
    assert _parameters(oracle._count_naive)[0] == "spec"
    assert _parameters(oracle._half_products) == ["values", "N", "top_row"]


def test_the_dp_entry_point_resolves():
    # the worker notes args[0] and args[1] and repeats calls as
    # (size, modulus, constraints)
    used = {node.attr for node in ast.walk(TREE)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "counter"}
    assert "dp_vector_sequence" in used
    for name in used:
        assert hasattr(counter, name), name
    assert _parameters(counter.dp_vector_sequence)[:3] == ["size", "modulus", "constraints"]


def test_every_member_class_has_members_and_its_cache():
    classes = _assigned("MEMBER_CLASSES")
    assert isinstance(classes, ast.Tuple)
    samples = {
        "SpecSet": lambda: maps.SpecSet(SetSpec(3, identity(MOD4))),
        "FiberSet": lambda: maps.FiberSet(MOD4, Residue(1, MOD4)),
        "ProductSet": lambda: maps.ProductSet(()),
    }
    names = [node.attr for node in classes.elts
             if isinstance(node, ast.Attribute) and node.value.id == "maps"]
    assert len(names) == len(classes.elts) and set(names) <= set(samples), names
    for name in names:
        cls = getattr(maps, name)
        assert _parameters(cls.members) == ["self", "budget"], name
        # the worker's cache check reads _members before the first call
        sample = samples[name]()
        assert isinstance(sample, cls) and sample._members is None, name
        sample.members()
        assert sample._members is not None, name


def test_every_battery_set_is_of_a_member_class():
    # a set class the worker does not wrap would leave its maps.members
    # spans empty, so every set a battery verifies must be of one it wraps
    wrapped = {getattr(maps, node.attr) for node in _assigned("MEMBER_CLASSES").elts}
    for tmap in maps.shipped_maps(Modulus(16), 5):
        for s in (tmap.domain, tmap.codomain):
            assert type(s) in wrapped, (tmap.name, type(s))
