import itertools
import random

import pytest

from helpers import rt, sl2_elements
from quiddity.modring import Modulus, Residue
from quiddity.sl2 import (
    Mat2,
    TARGET_NAMES,
    continuant_product,
    elementary,
    group_order,
    identity,
    neg_identity,
    s_mat,
    t_mat,
    target_by_name,
    target_name,
)


def test_elementary_examples():
    mod8, mod4 = Modulus(8), Modulus(4)
    assert elementary(0, mod8) == s_mat(mod8)
    assert elementary(Residue(1, mod8)).entries() == (1, 7, 1, 0)
    assert elementary(2, mod4).entries() == (2, 3, 1, 0)
    assert elementary(3, mod8).det() == 1


def test_continuant_classics():
    mod8 = Modulus(8)
    assert continuant_product([1, 1, 1], mod8) == neg_identity(mod8)
    for n in (3, 4, 8, 12):
        mod = Modulus(n)
        assert continuant_product([0, 0], mod) == neg_identity(mod)


def test_single_one_reduction_identity():
    # (a, 1, b) multiplies to the same matrix as (a-1, b-1), for all a, b.
    mod8 = Modulus(8)
    for a in range(8):
        for b in range(8):
            assert (continuant_product([a, 1, b], mod8)
                    == continuant_product([a - 1, b - 1], mod8))


def test_product_splits_and_determinant():
    rng = random.Random(1851)
    mod8 = Modulus(8)
    for _ in range(120):
        n = rng.randint(2, 8)
        values = [rng.randrange(8) for _ in range(n)]
        full = continuant_product(values, mod8)
        assert full.det() == 1
        for k in range(1, n):
            left = continuant_product(values[:k], mod8)
            right = continuant_product(values[k:], mod8)
            assert right @ left == full


def test_continuant_rejects_empty():
    with pytest.raises(ValueError):
        continuant_product([], Modulus(8))


@pytest.mark.parametrize("n,expected", [(4, 48), (8, 384), (3, 24)])
def test_group_table_size_against_brute_force(n, expected):
    assert len(sl2_elements(Modulus(n))) == expected
    assert group_order(n) == expected


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12, 16, 24])
def test_group_table_size_against_closed_form(n):
    assert len(sl2_elements(Modulus(n))) == group_order(n)


def test_letters_generate_the_group():
    # Every group element is a product of letter matrices.
    for n in (3, 4, 8):
        mod = Modulus(n)
        letters = [elementary(a, mod) for a in range(n)]
        frontier = set(letters)
        reached = set(frontier)
        while frontier:
            frontier = {letter @ g for g in frontier for letter in letters} - reached
            reached |= frontier
        assert reached == set(sl2_elements(mod))


def test_named_targets():
    mod8 = Modulus(8)
    for name in TARGET_NAMES:
        assert target_by_name(name, mod8).det() == 1
    assert target_by_name("neg-id", mod8) == -identity(mod8)
    assert target_by_name("neg-s", mod8) == -s_mat(mod8)
    assert target_by_name("t", mod8) == t_mat(mod8)
    with pytest.raises(ValueError):
        target_by_name("q", mod8)
    # the name is read from the matrix, not from how it was built
    for name in TARGET_NAMES:
        assert target_name(target_by_name(name, mod8)) == name
    assert target_name(Mat2(7, 0, 0, 7, mod8)) == "neg-id"
    assert target_name(Mat2(2, 1, 1, 1, mod8)) is None


def test_matrix_inverse():
    mod4 = Modulus(4)
    for g in sl2_elements(mod4):
        assert g @ g.inverse() == identity(mod4)
        assert g.inverse() @ g == identity(mod4)
    with pytest.raises(ValueError):
        Mat2(2, 0, 0, 1, mod4).inverse()


def test_key_packing():
    mod8 = Modulus(8)
    mat = Mat2(1, 2, 3, 4, mod8)
    assert mat.key() == ((1 * 8 + 2) * 8 + 3) * 8 + 4
    assert mat.residues() == rt(mod8, 1, 2, 3, 4)


@pytest.mark.parametrize("n", [2, 6, 9])
def test_key_round_trip(n):
    mod = Modulus(n)
    for entries in itertools.product(range(n), repeat=4):
        mat = Mat2(*entries, mod)
        assert Mat2.from_key(mat.key(), mod) == mat
