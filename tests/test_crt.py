import pytest

from quiddity import formulas
from quiddity.counter import CapExceeded, dp_count, dp_vector, dp_vector_sequence
from quiddity.crt import (
    Factorization,
    NonSquarefreeOddPart,
    assemble_count,
    closed_form,
    crt_split_bijection,
    piece_counts,
    split,
)
from quiddity.formulas import UnsupportedCase
from quiddity.maps import verify_reciprocal
from quiddity.modring import Modulus, factorize
from quiddity.oracle import NONUNIT, UNIT, BudgetExceeded, SetSpec, fixed
from quiddity.sl2 import TARGET_NAMES, Mat2, identity, neg_identity, target_by_name


def test_split_examples():
    assert split(24) == Factorization(3, (3,))
    assert split(40) == Factorization(3, (5,))
    assert split(12) == Factorization(2, (3,))
    assert split(15) == Factorization(None, (3, 5))
    assert split(8) == Factorization(3, ())
    assert split(120) == Factorization(3, (3, 5))


def test_split_reconstructs_the_modulus():
    for n in (6, 8, 12, 15, 18, 24, 36, 40, 45, 120, 840, 2250):
        assert split(n).modulus_value() == n


def test_split_rejections():
    # Only N < 2 is refused: a 2^1 part and repeated odd primes split too,
    # and a squarefree split still equals its two-field form.
    with pytest.raises(ValueError):
        split(1)
    assert split(6) == Factorization(1, (3,))
    assert split(18) == Factorization(1, (3,), (2,))
    assert split(36) == Factorization(2, (3,), (2,))
    assert split(45) == Factorization(None, (3, 5), (2, 1))
    assert split(2250).piece_moduli() == (2, 9, 125)
    assert issubclass(NonSquarefreeOddPart, ValueError)  # kept importable


def test_assemble_reference_values():
    assert int(assemble_count(5, split(24), 1)) == 800
    assert int(assemble_count(9, split(40), 1)) == 5666652160
    assert int(assemble_count(5, split(12), 1)) == 200


def test_assemble_matches_direct_dp_over_z12():
    mod12 = Modulus(12)
    fact = split(12)
    for size in range(4, 8):
        vec = dp_vector(size, mod12)
        assert vec.at(identity(mod12)) == int(assemble_count(size, fact, 1))
        assert vec.at(neg_identity(mod12)) == int(assemble_count(size, fact, -1))


def test_assemble_matches_direct_dp_over_z24():
    mod24 = Modulus(24)
    fact = split(24)
    seq = dp_vector_sequence(7, mod24)
    for size in range(4, 8):
        assert seq[size].at(identity(mod24)) == int(assemble_count(size, fact, 1))
        assert seq[size].at(neg_identity(mod24)) == int(assemble_count(size, fact, -1))


def test_piece_sources():
    # Formula pieces where the closed forms apply, DP fallback below their
    # validity range.
    pieces = piece_counts(5, split(24), 1)
    assert [(mp, src) for mp, _, src in pieces] == [(8, "formula"), (3, "formula")]
    pieces = piece_counts(4, split(12), 1)
    assert [(mp, src) for mp, _, src in pieces] == [(4, "formula"), (3, "dp")]
    pieces = piece_counts(3, split(12), 1)
    assert [(mp, src) for mp, _, src in pieces] == [(4, "dp"), (3, "dp")]
    # per-sign even sizes over Z/8Z have no closed form either
    pieces = piece_counts(6, split(24), 1)
    assert [(mp, src) for mp, _, src in pieces] == [(8, "dp"), (3, "formula")]


def test_piece_source_methods():
    with pytest.raises(UnsupportedCase):
        piece_counts(3, split(12), 1, method="formula")
    brute = piece_counts(4, split(12), 1, method="brute")
    auto = piece_counts(4, split(12), 1, method="auto")
    assert [(mp, cnt) for mp, cnt, _ in brute] == [(mp, cnt) for mp, cnt, _ in auto]


def test_piece_sources_follow_the_budget(monkeypatch):
    # Size 3: the Z/4Z piece's walk predicts 48 * 4 = 192 additions against
    # 4**3 = 64 candidates; the Z/3Z piece's 24 * 4 = 96 against 27.
    expected = piece_counts(3, split(12), 1)
    monkeypatch.setenv("QUIDDITY_BUDGET", "100")
    pieces = piece_counts(3, split(12), 1)
    assert [(mp, src) for mp, _, src in pieces] == [(4, "brute"), (3, "dp")]
    assert [cnt for _, cnt, _ in pieces] == [cnt for _, cnt, _ in expected]
    with pytest.raises(CapExceeded):
        piece_counts(3, split(12), 1, method="dp")
    monkeypatch.setenv("QUIDDITY_BUDGET", "50")
    with pytest.raises(BudgetExceeded):
        piece_counts(3, split(12), 1)


def test_an_explicit_budget_reaches_every_piece(monkeypatch):
    # The same choices as above, with the budget passed in and the
    # environment left at its default.
    monkeypatch.delenv("QUIDDITY_BUDGET", raising=False)
    expected = piece_counts(3, split(12), 1)
    pieces = piece_counts(3, split(12), 1, budget=100)
    assert [(mp, src) for mp, _, src in pieces] == [(4, "brute"), (3, "dp")]
    assert [cnt for _, cnt, _ in pieces] == [cnt for _, cnt, _ in expected]
    # 80 sends the Z/3Z piece to brute force as well
    pieces = piece_counts(3, split(12), 1, budget=80)
    assert [(mp, src) for mp, _, src in pieces] == [(4, "brute"), (3, "brute")]
    assert assemble_count(3, split(12), 1, budget=80) == assemble_count(3, split(12), 1)
    with pytest.raises(CapExceeded):
        assemble_count(3, split(12), 1, method="dp", budget=100)
    with pytest.raises(BudgetExceeded):
        assemble_count(3, split(12), 1, budget=50)


def test_odd_only_modulus_assembles_too():
    mod15 = Modulus(15)
    for size in (5, 6):
        for sign, target in ((1, identity(mod15)), (-1, neg_identity(mod15))):
            assert int(assemble_count(size, split(15), sign)) == dp_count(
                SetSpec(size, target))


# Sizes 3..9 that closed_form answers at +-Id: a 2^m piece needs size 4 or
# an odd size >= 5 (any even size >= 4 when m = 2), a prime piece size >= 5.
CLOSED_FORM_SIZES = {
    4: {4, 5, 6, 7, 8, 9}, 8: {4, 5, 7, 9}, 16: {4, 5, 7, 9},
    12: {5, 6, 7, 8, 9}, 20: {5, 6, 7, 8, 9}, 24: {5, 7, 9}, 40: {5, 7, 9},
    5: {5, 6, 7, 8, 9}, 7: {5, 6, 7, 8, 9},
}


@pytest.mark.parametrize("n", sorted(CLOSED_FORM_SIZES))
def test_closed_form_equals_the_dp_at_plus_minus_id(n):
    mod = Modulus(n)
    covered = set()
    for size in range(3, 10):
        for target in (identity(mod), neg_identity(mod)):
            spec = SetSpec(size, target)
            value = closed_form(spec)
            if value is not None:
                covered.add(size)
                assert value == dp_count(spec), (size, target)
    assert covered == CLOSED_FORM_SIZES[n]


@pytest.mark.parametrize("n", [8, 16])
def test_closed_form_equals_the_dp_with_a_unit_second_entry(n):
    mod = Modulus(n)
    for size in range(3, 10):
        for name in TARGET_NAMES:
            spec = SetSpec(size, target_by_name(name, mod), {2: UNIT})
            assert closed_form(spec) == dp_count(spec), (size, name)


def test_closed_form_refusals():
    mod8, mod24 = Modulus(8), Modulus(24)
    assert closed_form(SetSpec(7, identity(Modulus(18)))) is None  # Z/2Z, Z/9Z have none
    assert closed_form(SetSpec(6, identity(mod24))) is None  # no per-sign 8-piece form
    assert closed_form(SetSpec(7, target_by_name("s", mod8))) is None
    assert closed_form(SetSpec(7, Mat2(2, 1, 1, 1, mod8), {2: UNIT})) is None
    assert closed_form(SetSpec(7, identity(mod24), {2: UNIT})) is None  # not a 2-power
    for constraints in ({2: NONUNIT}, {3: UNIT}, {2: fixed(1)}, {2: UNIT, 3: UNIT}):
        assert closed_form(SetSpec(7, identity(mod8), constraints)) is None, constraints


def _has_a_piece_without_formula(n):
    return any(k >= 2 if p > 2 else k == 1 for p, k in split(n).prime_powers())


def test_no_closed_form_for_a_two_or_a_prime_power_piece(monkeypatch):
    # u_count counts over the field F_q; applied to Z/9Z it would give
    # u_count(7, 9, +) = 6643, where Z/9Z has 7371 solutions.
    fields = []
    real_u_count = formulas.u_count

    def u_count(n, q, sign):
        fields.append(q)
        return real_u_count(n, q, sign)

    monkeypatch.setattr(formulas, "u_count", u_count)
    for n in filter(_has_a_piece_without_formula, range(2, 201)):
        mod = Modulus(n)
        for size in range(1, 13):
            for target in (identity(mod), neg_identity(mod)):
                assert closed_form(SetSpec(size, target)) is None, (n, size)
    assert fields and all(factorize(q) == ((q, 1),) for q in fields)


REACH_MODULI = (2, 6, 9, 18, 27, 36, 50, 54, 100, 108)


@pytest.mark.parametrize("n", REACH_MODULI)
def test_assemble_matches_the_dp_with_two_and_prime_power_pieces(n):
    mod, fact = Modulus(n), split(n)
    seq = dp_vector_sequence(8, mod)
    for size in range(1, 9):
        assert int(assemble_count(size, fact, 1)) == seq[size].at(identity(mod))
        assert int(assemble_count(size, fact, -1)) == seq[size].at(neg_identity(mod))


def test_reach_reference_values():
    assert [(mp, cnt) for mp, cnt, _ in piece_counts(7, split(18), 1)] == [(2, 21), (9, 7371)]
    assert int(assemble_count(7, split(18), 1)) == 154791
    assert int(assemble_count(7, split(108), 1)) == 200609136


def test_two_part_only_assembly_is_the_plain_count():
    assert int(assemble_count(5, split(8), 1)) == 80


@pytest.mark.parametrize("size", [4, 5])
@pytest.mark.parametrize("sign", [1, -1])
def test_componentwise_split_is_a_bijection(size, sign):
    report = verify_reciprocal(crt_split_bijection(size, 12, sign))
    assert report.ok, report.describe()


@pytest.mark.parametrize("n", [18, 50])
@pytest.mark.parametrize("size", [4, 5])
def test_componentwise_split_over_z2_and_a_prime_square_is_a_bijection(n, size):
    # Admission charges all 50^5 tuples over Z/50Z; the walk visits far fewer.
    for sign in (1, -1):
        report = verify_reciprocal(crt_split_bijection(size, n, sign), budget=1 << 30)
        assert report.ok, report.describe()


def test_split_bijection_needs_two_pieces():
    with pytest.raises(ValueError):
        crt_split_bijection(5, 8, 1)
