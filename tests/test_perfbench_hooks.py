"""The names the benchmark's traced worker hooks into still resolve.

``perfbench/worker.py`` wraps the oracle's private walkers, the DP entry
point and the member sets' ``members`` by name, and reads their arguments
and the ``_members`` cache, and ``perfbench/layers.py`` sums spans by
name; a rename or a move there would leave its spans silently empty.  The
names are read from their source with ``ast``: neither script is imported
or run here.
"""

import ast
import functools
import importlib
import inspect
from pathlib import Path

from quiddity import counter, maps, oracle
from quiddity.modring import Modulus, Residue
from quiddity.sl2 import identity
from quiddity.spec import SetSpec

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
TREE = ast.parse(WORKER.read_text(), str(WORKER))
LAYER_SOURCE = WORKER.parent / "layers.py"
LAYER_TREE = ast.parse(LAYER_SOURCE.read_text(), str(LAYER_SOURCE))
MOD4 = Modulus(4)


def _assigned(name: str, tree: ast.Module = TREE) -> ast.expr:
    """The value the worker (or another script's ``tree``) assigns to a
    module-level name."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name for target in node.targets):
            return node.value
    raise AssertionError(f"no module-level {name} assigned")


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


def test_every_public_maps_function_runs_once_per_call():
    # The worker wraps each public maps function outside PER_ELEMENT in a
    # span.  A public helper that runs once per tuple would then add a span
    # per battery member, and nothing would fail: every public function is
    # either listed there or one of the once-per-call builders and checks.
    per_element = ast.literal_eval(_assigned("PER_ELEMENT"))["maps"]
    per_call = {"verify_reciprocal", "shipped_maps", "battery_cost"}
    public = [name for name, value in vars(maps).items()
              if not name.startswith("_") and callable(value) and not isinstance(value, type)
              and getattr(value, "__module__", None) == maps.__name__]
    assert {"reduce_pair", "shipped_maps"} <= set(public)
    for name in public:
        assert name in per_element or name in per_call or name.endswith("_bijection"), name


def test_every_span_name_the_layer_metrics_read_resolves_in_its_layer():
    # layers.py sums spans by name ("crt.piece_counts", "maps.SpecSet.members",
    # ...).  The worker records a span only for a function whose __module__
    # is its layer's module, so a function moved to a module the worker does
    # not trace would leave its metric at zero and nothing would fail.  The
    # span names are the dotted string constants under a layer that are not
    # metric names.
    layers = set(ast.literal_eval(_assigned("LAYERS", LAYER_TREE)))
    metrics = {key.value for key in _assigned("UNITS", LAYER_TREE).keys
               if isinstance(key, ast.Constant)}
    spans = {node.value for node in ast.walk(LAYER_TREE)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value.partition(".")[0] in layers and node.value.partition(".")[2]
             and node.value not in metrics}
    assert {"crt.assemble_count", "crt.piece_counts", "maps.verify_reciprocal",
            "oracle._count_naive", "oracle._count_mitm", "oracle.product_histogram",
            *ast.literal_eval(_assigned("MEMBERS", LAYER_TREE))} <= spans, spans
    for span in spans:
        layer, *path = span.split(".")
        module = importlib.import_module(f"quiddity.{layer}")
        value = functools.reduce(getattr, path, module)
        assert inspect.isfunction(value) and value.__module__ == module.__name__, span
