import itertools
import random

import pytest

from helpers import rt
from quiddity.modring import Modulus, Residue
from quiddity.sl2 import (
    CapExceeded,
    Mat2,
    TARGET_NAMES,
    continuant_product,
    elementary,
    group_order,
    group_table,
    identity,
    neg_identity,
    s_mat,
    t_mat,
    target_by_name,
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


def _brute_group_size(n: int) -> int:
    return sum(1 for a, b, c, d in itertools.product(range(n), repeat=4)
               if (a * d - b * c) % n == 1)


@pytest.mark.parametrize("n,expected", [(4, 48), (8, 384), (3, 24)])
def test_group_table_size_against_brute_force(n, expected):
    table = group_table(Modulus(n))
    assert len(table) == expected
    assert _brute_group_size(n) == expected
    assert group_order(n) == expected


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12, 16, 24])
def test_group_table_size_against_closed_form(n):
    assert len(group_table(Modulus(n))) == group_order(n)


def test_group_table_is_a_bijection():
    for n in (3, 4, 8):
        table = group_table(Modulus(n))
        assert table[0] == identity(Modulus(n))
        seen = set()
        for ordinal in range(len(table)):
            g = table[ordinal]
            assert g.det() == 1
            assert table.index_of(g) == ordinal
            seen.add(g.key())
        assert len(seen) == len(table)


def test_letters_generate_the_group():
    # Every group element is a product of letter matrices.
    for n in (3, 4, 8):
        mod = Modulus(n)
        table = group_table(mod)
        frontier = {elementary(a, mod).key() for a in range(n)}
        reached = set(frontier)
        letters = [elementary(a, mod) for a in range(n)]
        while frontier:
            new = set()
            for key in frontier:
                g = table[table.index_of_key(key)]
                for letter in letters:
                    nk = (letter @ g).key()
                    if nk not in reached:
                        reached.add(nk)
                        new.add(nk)
            frontier = new
        assert len(reached) == len(table)


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        group_table(Modulus((1 << 16) + 2))


def test_named_targets():
    mod8 = Modulus(8)
    for name in TARGET_NAMES:
        assert target_by_name(name, mod8).det() == 1
    assert target_by_name("neg-id", mod8) == -identity(mod8)
    assert target_by_name("neg-s", mod8) == -s_mat(mod8)
    assert target_by_name("t", mod8) == t_mat(mod8)
    with pytest.raises(ValueError):
        target_by_name("q", mod8)


def test_matrix_inverse():
    mod4 = Modulus(4)
    table = group_table(mod4)
    for ordinal in range(len(table)):
        g = table[ordinal]
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
    assert [g.key() for g in group_table(mod)._elements] == group_table(mod)._keys
