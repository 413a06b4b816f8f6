"""The public names of the ``quiddity`` package, which load lazily."""

import importlib

import pytest

import quiddity

# home module -> the names it provides to the package namespace
HOMES = {
    "modring": ["Modulus", "NotAUnit", "Residue", "nonunits_of", "units_of"],
    "sl2": ["Mat2", "continuant_product", "elementary", "group_order", "identity",
            "neg_identity", "s_mat", "t_mat", "target_by_name"],
    "spec": ["ANY", "BudgetExceeded", "Constraint", "NONUNIT", "SetSpec", "UNIT", "fixed"],
    "oracle": ["count", "count_zero_pairs", "product_histogram", "psi", "psi_fiber",
               "solutions"],
    "counter": ["CapExceeded", "CountVector", "dp_count", "dp_count_all_targets", "dp_vector",
                "dp_vector_sequence"],
    "formulas": ["FormulaValue", "InexactDivision", "InexactResult", "NonSquarefree",
                 "UnsupportedCase", "crt_count", "delta_base", "delta_closed_form",
                 "delta_recursion", "delta_value", "gauss_binom2", "gauss_bracket", "u_count",
                 "w4_2m", "w4_ring4", "w8_even", "w8_odd", "w_even_bounds", "w_odd_2m",
                 "zero_pair_count"],
    "maps": ["DomainViolation", "TupleMap", "shipped_maps", "verify_reciprocal"],
    "crt": ["Factorization", "NonSquarefreeOddPart", "assemble_count", "split"],
}
PUBLIC = sorted(name for names in HOMES.values() for name in names)


def test_all_lists_the_public_names():
    assert len(PUBLIC) == 61
    assert sorted(quiddity.__all__) == PUBLIC
    assert quiddity.__version__ == "0.1.0"


# oracle re-binds the set-spec names, as the same objects, for its callers
REBOUND = [("oracle", name) for name in HOMES["spec"]]


@pytest.mark.parametrize("home, name", [(home, name) for home, names in HOMES.items()
                                        for name in names] + REBOUND)
def test_each_name_is_its_home_modules_object(home, name):
    module = importlib.import_module(f"quiddity.{home}")
    assert getattr(quiddity, name) is getattr(module, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from quiddity import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert all(namespace[name] is getattr(quiddity, name) for name in PUBLIC)


def test_dir_lists_every_name():
    assert set(PUBLIC) <= set(dir(quiddity))
    assert "__version__" in dir(quiddity)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        quiddity.no_such_name
    assert not hasattr(quiddity, "DEFAULT_BUDGET")
