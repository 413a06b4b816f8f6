"""Exact counting and verification toolkit for lambda-quiddities over Z/NZ.

A lambda-quiddity of size n is a tuple (a_1, ..., a_n) whose continuant
product of letter matrices [[a_i, -1], [1, 0]] equals plus or minus the
identity.  The package provides three mutually cross-checking count
sources (brute-force enumeration, a transfer-matrix dynamic program, and
arbitrary-precision closed forms), the bijective reductions that tie the
counts together, and a CLI that reproduces the reference tables.

The public names below load lazily (PEP 562): ``import quiddity`` imports
no submodule, and the first access to a name imports its home module.
Every CLI call starts a fresh interpreter, so it pays only for the
modules its command runs.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it provides
_EXPORTS = {
    "modring": ("Modulus", "NotAUnit", "Residue", "nonunits_of", "units_of"),
    "sl2": ("Mat2", "continuant_product", "elementary", "group_order", "identity",
            "neg_identity", "s_mat", "t_mat", "target_by_name"),
    "spec": ("ANY", "BudgetExceeded", "Constraint", "NONUNIT", "SetSpec", "UNIT", "fixed"),
    "oracle": ("count", "count_zero_pairs", "product_histogram", "psi", "psi_fiber",
               "solutions"),
    "counter": ("CapExceeded", "CountVector", "dp_count", "dp_count_all_targets", "dp_vector",
                "dp_vector_sequence"),
    "formulas": ("FormulaValue", "InexactDivision", "InexactResult", "NonSquarefree",
                 "UnsupportedCase", "crt_count", "delta_base", "delta_closed_form",
                 "delta_recursion", "delta_value", "gauss_bracket", "gauss_binom2", "u_count",
                 "w4_2m", "w4_ring4", "w8_even", "w8_odd", "w_even_bounds", "w_odd_2m",
                 "zero_pair_count"),
    "maps": ("DomainViolation", "TupleMap", "shipped_maps", "verify_reciprocal"),
    "crt": ("Factorization", "NonSquarefreeOddPart", "assemble_count", "split"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
