"""Exact counting and verification toolkit for lambda-quiddities over Z/NZ.

A lambda-quiddity of size n is a tuple (a_1, ..., a_n) whose continuant
product of letter matrices [[a_i, -1], [1, 0]] equals plus or minus the
identity.  The package provides three mutually cross-checking count
sources (brute-force enumeration, a transfer-matrix dynamic program, and
arbitrary-precision closed forms), the bijective reductions that tie the
counts together, and a CLI that reproduces the reference tables.
"""

from .modring import Modulus, NotAUnit, Residue, nonunits_of, units_of
from .sl2 import (
    Mat2,
    continuant_product,
    elementary,
    group_order,
    identity,
    neg_identity,
    s_mat,
    t_mat,
    target_by_name,
)
from .oracle import (
    ANY,
    BudgetExceeded,
    Constraint,
    NONUNIT,
    SetSpec,
    UNIT,
    count,
    count_zero_pairs,
    fixed,
    product_histogram,
    psi,
    psi_fiber,
    solutions,
)
from .counter import (CapExceeded, CountVector, dp_count, dp_count_all_targets, dp_vector,
                      dp_vector_sequence)
from .formulas import (
    FormulaValue,
    InexactDivision,
    InexactResult,
    NonSquarefree,
    UnsupportedCase,
    crt_count,
    delta_base,
    delta_closed_form,
    delta_recursion,
    delta_value,
    gauss_binom2,
    gauss_bracket,
    u_count,
    w4_2m,
    w4_ring4,
    w8_even,
    w8_odd,
    w_even_bounds,
    w_odd_2m,
    zero_pair_count,
)
from .maps import DomainViolation, TupleMap, shipped_maps, verify_reciprocal
from .crt import Factorization, NonSquarefreeOddPart, assemble_count, split

__version__ = "0.1.0"
