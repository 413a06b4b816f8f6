from functools import lru_cache

import pytest

from quiddity import oracle
from quiddity.counter import dp_count, dp_vector_sequence
from quiddity.formulas import (
    FormulaValue,
    NonSquarefree,
    UnsupportedCase,
    crt_count,
    delta_base,
    delta_closed_form,
    delta_recursion,
    delta_value,
    gauss_binom2,
    gauss_bracket,
    normalize_sign,
    u_count,
    w4_2m,
    w4_ring4,
    w8_even,
    w8_odd,
    w_even_bounds,
    w_odd_2m,
    zero_pair_count,
)
from quiddity.modring import Modulus
from quiddity.oracle import SetSpec, UNIT, count
from quiddity.sl2 import identity, neg_identity, target_by_name

# Reference rows (size 3..10): counts with a unit second entry over Z/8Z.
DELTA_ID_ROW = [1, 4, 48, 320, 2816, 21504, 176128, 1392640]
DELTA_S_ROW = [0, 8, 32, 384, 2560, 22528, 172032, 1409024]


@lru_cache(maxsize=None)
def qbinom(n: int, k: int, q: int) -> int:
    """Gaussian binomial via the q-Pascal recurrence (independent oracle)."""
    if k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    return qbinom(n - 1, k - 1, q) + q ** k * qbinom(n - 1, k, q)


def test_gauss_bracket():
    assert gauss_bracket(3, 2) == 7
    assert gauss_bracket(2, 9) == 10
    for k in (2, 3, 9, 25):
        assert gauss_bracket(1, k) == 1
        for m in range(1, 10):
            assert gauss_bracket(m, k) == sum(k ** i for i in range(m))
    with pytest.raises(ValueError):
        gauss_bracket(0, 2)


def test_gauss_binom2_against_q_pascal():
    assert gauss_binom2(2, 2) == 1
    assert gauss_binom2(3, 3) == 13
    for k in (2, 3, 5, 9):
        assert gauss_binom2(1, k) == 0
        for m in range(1, 13):
            assert gauss_binom2(m, k) == qbinom(m, 2, k)


def test_u_count_reference_values():
    assert u_count(5, 3, -1) == 10
    assert u_count(6, 3, -1) == 35
    assert u_count(5, 5, 1) == 26
    assert u_count(7, 3, 1) == 91
    assert u_count(5, 3, 1) == u_count(5, 3, -1)


def test_u_count_characteristic_two_branch():
    # The -Id formula covers q = 2^e; cross-check against brute force on
    # the 2-element field, where -Id and Id coincide.
    mod2 = Modulus(2)
    for size in (6, 8):
        assert u_count(size, 2, -1) == count(SetSpec(size, neg_identity(mod2)))
    with pytest.raises(UnsupportedCase):
        u_count(6, 2, 1)
    with pytest.raises(UnsupportedCase):
        u_count(5, 4, 1)


def test_u_count_rejects_bad_parameters():
    with pytest.raises(UnsupportedCase):
        u_count(4, 3, 1)
    with pytest.raises(ValueError):
        u_count(5, 6, 1)
    with pytest.raises(ValueError):
        u_count(5, 12, -1)


def test_w4_ring4_against_oracle():
    mod4 = Modulus(4)
    assert w4_ring4(5, 1) == 20
    assert w4_ring4(6, 1) == 80
    assert w4_ring4(6, -1) == 96
    for size in range(3, 9):
        for sign, target in ((1, identity(mod4)), (-1, neg_identity(mod4))):
            assert int(w4_ring4(size, sign)) == count(SetSpec(size, target), "mitm")
    with pytest.raises(UnsupportedCase):
        w4_ring4(2, 1)


def test_w_odd_2m_reference_values():
    assert w_odd_2m(2, 3, 1) == 80
    assert w_odd_2m(4, 3, 1) == 348160
    # the exponent in front goes negative here; the value is still exact
    assert w_odd_2m(2, 2, 1) == 20
    for n_half in range(2, 8):
        for m in range(2, 7):
            assert w_odd_2m(n_half, m, 1) == w_odd_2m(n_half, m, -1)


def test_w_odd_2m_matches_mod4_closed_form():
    for size in range(5, 22, 2):
        assert w_odd_2m((size - 1) // 2, 2, 1) == w4_ring4(size, 1)


def test_delta_closed_form_rows():
    for size, expected in zip(range(5, 11), DELTA_ID_ROW[2:]):
        assert delta_closed_form(size, 3, "id") == expected
        assert delta_closed_form(size, 3, "neg-id") == expected
        assert delta_closed_form(size, 3, "t") == expected
    for size, expected in zip(range(5, 11), DELTA_S_ROW[2:]):
        assert delta_closed_form(size, 3, "s") == expected
        assert delta_closed_form(size, 3, "neg-s") == expected
    with pytest.raises(UnsupportedCase):
        delta_closed_form(4, 3, "id")


def test_delta_base_values():
    assert delta_base(4, 3, "id") == 4
    assert delta_base(3, 3, "s") == 0
    assert delta_base(4, 2, "s") == 4
    assert delta_base(3, 2, "t") == 1
    with pytest.raises(UnsupportedCase):
        delta_base(5, 3, "id")


def test_delta_base_against_oracle():
    for m in (2, 3):
        mod = Modulus(1 << m)
        for size in (3, 4):
            for name in ("id", "neg-id", "s", "neg-s", "t", "neg-t"):
                spec = SetSpec(size, target_by_name(name, mod), {2: UNIT})
                assert int(delta_base(size, m, name)) == count(spec)


def test_delta_value_size_two_is_enumerated():
    for m in (2, 3):
        mod = Modulus(1 << m)
        for name in ("id", "neg-id", "s", "neg-s", "t", "neg-t"):
            spec = SetSpec(2, target_by_name(name, mod), {2: UNIT})
            assert int(delta_value(2, m, name)) == count(spec)
    assert delta_value(2, 3, "neg-t") == 1
    assert delta_value(2, 3, "id") == 0


def test_delta_value_refuses_m_below_two_at_every_size():
    # Over Z/2Z, -T is T, and the size-2 count at T is 1, not the 0 that
    # holds for m >= 2; no delta formula covers m = 1.
    assert count(SetSpec(2, target_by_name("t", Modulus(2)), {2: UNIT})) == 1
    for size in (2, 3, 4, 5):
        with pytest.raises(UnsupportedCase):
            delta_value(size, 1, "t")


def test_delta_recursion_steps():
    assert delta_recursion(48, 4, 3) == 320
    assert delta_recursion(0, 0, 5) == 0
    assert delta_recursion(2816, 320, 3) == 21504


def test_closed_form_satisfies_recursion():
    for m in range(2, 7):
        for target in ("id", "s"):
            for size in range(7, 41):
                assert delta_closed_form(size, m, target) == delta_recursion(
                    delta_closed_form(size - 1, m, target),
                    delta_closed_form(size - 2, m, target), m)


def test_closed_form_extends_the_base_values():
    # Rolling the recursion forward from the size 3/4 base values lands on
    # the closed form at sizes 5 and 6.
    for m in range(2, 7):
        for target in ("id", "s"):
            d3, d4 = delta_base(3, m, target), delta_base(4, m, target)
            d5 = delta_recursion(d4, d3, m)
            d6 = delta_recursion(d5, d4, m)
            assert delta_closed_form(5, m, target) == d5
            assert delta_closed_form(6, m, target) == d6


def test_w4_2m_values():
    assert w4_2m(3, 1) == 20
    assert w4_2m(3, -1) == 8
    assert w4_2m(2, 1) == 8
    assert w4_2m(2, 1) == w4_ring4(4, 1)
    assert w4_2m(2, -1) == w4_ring4(4, -1)


def test_w_even_bounds_example():
    lower, upper = w_even_bounds(3, 3, 1)
    assert lower == 512 and upper == 1280
    for n_half in range(3, 13):
        for m in range(2, 7):
            for sign in (1, -1):
                lo, hi = w_even_bounds(n_half, m, sign)
                assert int(lo) <= int(hi)
    with pytest.raises(UnsupportedCase):
        w_even_bounds(2, 3, 1)


def test_w8_values():
    assert w8_even(2) == 28
    assert w8_even(3) == 1440
    assert w8_even(5) == 5605376
    assert w8_odd(2, 1) == 80
    assert w8_odd(3, 1) == 5376
    assert w8_odd(3, -1) == 5376
    for n_half in range(2, 13):
        assert w8_odd(n_half, 1) == w_odd_2m(n_half, 3, 1)


def test_crt_count_products():
    assert crt_count(5, [(8, 80), (3, 10)], 1) == 800
    assert crt_count(5, [(8, 80), (5, 26)], 1) == 2080
    assert crt_count(7, [(8, 5376), (3, 91)], 1) == 489216
    assert crt_count(5, [(3, 10), (8, 80)], 1) == 800  # order is irrelevant


def test_crt_count_rejects_bad_pieces():
    # Pieces must be pairwise coprime; prime powers and a lone composite
    # piece are fine.
    with pytest.raises(NonSquarefree):
        crt_count(5, [(3, 10), (3, 10)], 1)
    with pytest.raises(NonSquarefree):
        crt_count(5, [(8, 80), (4, 20)], 1)
    assert crt_count(5, [(9, 90)], 1) == 90
    assert crt_count(5, [(6, 5)], 1) == 5
    assert crt_count(5, [(4, 20), (9, 90)], 1) == 1800


def test_zero_pair_count_matches_enumeration():
    assert zero_pair_count(2) == 4
    assert zero_pair_count(3) == 12
    assert zero_pair_count(4) == 32
    for m in range(2, 9):
        assert int(zero_pair_count(m)) == oracle.count_zero_pairs(m)


def test_every_division_is_exact_across_the_grid():
    # InexactResult must never fire on valid input; evaluate everything.
    for m in range(2, 7):
        for size in range(5, 41):
            delta_closed_form(size, m, "id")
            delta_closed_form(size, m, "s")
        for n_half in range(2, 21):
            w_odd_2m(n_half, m, 1)
        for n_half in range(3, 13):
            w_even_bounds(n_half, m, 1)
    for size in range(3, 42):
        w4_ring4(size, 1)
        w4_ring4(size, -1)
    for n_half in range(2, 21):
        w8_even(n_half)
        w8_odd(n_half, 1)


def test_formula_value_ergonomics():
    value = w4_2m(3, 1)
    assert isinstance(value, FormulaValue)
    assert int(value) == 20
    assert value == 20
    assert value == w4_2m(3, "+")
    assert "w4_2m" in repr(value)


def test_sign_normalization():
    assert normalize_sign("+") == 1
    assert normalize_sign("-") == -1
    assert normalize_sign(1) == 1
    with pytest.raises(ValueError):
        normalize_sign(0)


@pytest.mark.parametrize("m,max_size", [(2, 10), (3, 8), (4, 6)])
def test_every_closed_form_agrees_with_the_dp(m, max_size):
    mod = Modulus(1 << m)
    plain = dp_vector_sequence(max_size, mod)
    with_unit = dp_vector_sequence(max_size, mod, {2: UNIT})
    targets = {name: target_by_name(name, mod)
               for name in ("id", "neg-id", "s", "neg-s", "t", "neg-t")}
    for size in range(3, max_size + 1):
        plus = plain[size].at(targets["id"])
        minus = plain[size].at(targets["neg-id"])
        if size % 2 and size >= 5:
            assert plus == int(w_odd_2m((size - 1) // 2, m, 1))
            assert minus == int(w_odd_2m((size - 1) // 2, m, -1))
        if size == 4:
            assert plus == int(w4_2m(m, 1))
            assert minus == int(w4_2m(m, -1))
        if m == 2:
            assert plus == int(w4_ring4(size, 1))
            assert minus == int(w4_ring4(size, -1))
        if m == 3 and size % 2 == 0 and size >= 4:
            assert plus + minus == int(w8_even(size // 2))
        for name, target in targets.items():
            expected = (delta_base(size, m, name) if size in (3, 4)
                        else delta_closed_form(size, m, name))
            assert with_unit[size].at(target) == int(expected)


def test_per_sign_mod8_even_sizes_come_from_the_dp():
    # No closed form splits even sizes over Z/8Z by sign; the DP does,
    # and the two signs must add up to the total closed form.
    mod8 = Modulus(8)
    for size in (4, 6, 8):
        plus = dp_count(SetSpec(size, identity(mod8)))
        minus = dp_count(SetSpec(size, neg_identity(mod8)))
        assert plus + minus == int(w8_even(size // 2))


# ---------------------------------------------------------------------------
# the closed forms on exact integers, against the same forms over Fraction


def _fraction_forms():
    """Each rewritten closed form at every parameter on the grid, with its
    value evaluated over exact rationals as the formula is stated."""
    from fractions import Fraction

    two = Fraction(2)
    for n in range(3, 61):
        if n % 2:
            plus = minus = (two ** (2 * (n - 2)) - two ** (n - 3)) / 3
        else:
            bigger = (two ** (2 * (n - 2)) + 4 * two ** (n - 3)) / 3
            smaller = (two ** (2 * (n - 2)) - two ** (n - 2)) / 3
            plus, minus = (bigger, smaller) if (n // 2) % 2 == 0 else (smaller, bigger)
        yield w4_ring4(n, 1), plus
        yield w4_ring4(n, -1), minus
    for m in range(2, 9):
        for n in range(5, 61):
            yield (delta_closed_form(n, m, "id"),
                   two ** (m * n - n - 3 * m) * (2 ** (n + 1) + 8 * (-1) ** (n + 1)) / 3)
            yield (delta_closed_form(n, m, "s"),
                   two ** (m * n - n - 3 * m + 1) * (2 ** n + (-1) ** n * 8) / 3)
        for n_half in range(2, 30):
            value = two ** (2 * m * n_half - 2 * n_half - 2 * m - 1) * (2 ** (2 * n_half + 3) - 8) / 3
            yield w_odd_2m(n_half, m, 1), value
            yield w_odd_2m(n_half, m, -1), value
    for n in range(2, 30):
        yield (w8_even(n), 28 * 8 ** (n - 2) + Fraction(
            2 ** (4 * n - 5) - 2 ** (3 * n - 3) + 2 ** (6 * n - 6) - 2 ** (3 * n), 3))
        yield w8_odd(n, 1), Fraction(2 ** (4 * n - 7) * (2 ** (2 * n + 3) - 8), 3)
        yield w8_odd(n, -1), Fraction(2 ** (4 * n - 7) * (2 ** (2 * n + 3) - 8), 3)


def test_the_integer_forms_equal_their_rational_evaluation():
    checked = 0
    for got, value in _fraction_forms():
        assert value.denominator == 1, (got, value)
        assert type(got.value) is int and got.value == value.numerator, (got, value)
        checked += 1
    # 116 at Z/4Z, 168 per m = 2..8, 84 at Z/8Z
    assert checked == 1376, checked


@pytest.mark.parametrize("num, den, shown", [
    (7, 3, "7/3"), (-7, 3, "-7/3"), (14, 6, "7/3"), (-14, 6, "-7/3"), (1, 2, "1/2")])
def test_an_inexact_division_shows_the_quotient_in_lowest_terms(num, den, shown):
    from fractions import Fraction

    from quiddity.formulas import InexactResult, _exact

    assert str(Fraction(num, den)) == shown
    with pytest.raises(InexactResult, match=f"^f\\(1,\\) is not an integer: {shown}$"):
        _exact(num, den, "f", (1,))


def test_an_exact_division_and_a_negative_exponent():
    from quiddity.formulas import InexactResult, _exact, _ratio_pow2

    assert _exact(-21, 3, "f", (1,)) == -7
    assert _ratio_pow2(120, -1, 3, "f", ()) == 20
    assert _ratio_pow2(5, 3, 2, "f", ()) == 20
    assert _ratio_pow2(-3, 0, 3, "f", ()) == -1
    with pytest.raises(InexactResult, match=r"^g\(2, 3\) is not an integer: 5/4$"):
        _ratio_pow2(5, -2, 1, "g", (2, 3))


def test_every_exact_division_raises_inexact_division(monkeypatch):
    from quiddity import formulas

    with pytest.raises(formulas.InexactDivision, match=r"^f\(1,\) is not an integer: 7/3$"):
        formulas._exact(7, 3, "f", (1,))
    # the Gaussian brackets divide through _exact too
    calls = []
    exact = formulas._exact
    monkeypatch.setattr(formulas, "_exact", lambda *args: calls.append(args) or exact(*args))
    assert (formulas.gauss_bracket(3, 2), formulas.gauss_binom2(3, 2)) == (7, 7)
    assert calls == [(7, 1, "gauss_bracket", (3, 2)), (21, 3, "gauss_binom2", (3, 2))]


def test_delta_recursion_refuses_m_below_one():
    assert delta_recursion(1, 2, 1) == 1 + 2 * 2
    assert type(delta_recursion(1, 2, 1).value) is int
    for m in (0, -1):
        with pytest.raises(UnsupportedCase, match="^need m >= 1$"):
            delta_recursion(1, 2, m)
