import pytest

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
from quiddity.modring import Modulus
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
    for n in (8, 12, 15, 24, 40, 120, 840):
        assert split(n).modulus_value() == n


def test_split_rejections():
    with pytest.raises(NonSquarefreeOddPart):
        split(36)  # odd part 9 = 3^2
    with pytest.raises(NonSquarefreeOddPart):
        split(45)
    with pytest.raises(ValueError):
        split(6)  # 2-adic part 2^1 is not covered
    with pytest.raises(ValueError):
        split(1)


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
    assert closed_form(SetSpec(7, identity(Modulus(18)))) is None  # split refuses 18
    assert closed_form(SetSpec(6, identity(mod24))) is None  # no per-sign 8-piece form
    assert closed_form(SetSpec(7, target_by_name("s", mod8))) is None
    assert closed_form(SetSpec(7, Mat2(2, 1, 1, 1, mod8), {2: UNIT})) is None
    assert closed_form(SetSpec(7, identity(mod24), {2: UNIT})) is None  # not a 2-power
    for constraints in ({2: NONUNIT}, {3: UNIT}, {2: fixed(1)}, {2: UNIT, 3: UNIT}):
        assert closed_form(SetSpec(7, identity(mod8), constraints)) is None, constraints


def test_two_part_only_assembly_is_the_plain_count():
    assert int(assemble_count(5, split(8), 1)) == 80


@pytest.mark.parametrize("size", [4, 5])
@pytest.mark.parametrize("sign", [1, -1])
def test_componentwise_split_is_a_bijection(size, sign):
    report = verify_reciprocal(crt_split_bijection(size, 12, sign))
    assert report.ok, report.describe()


def test_split_bijection_needs_two_pieces():
    with pytest.raises(ValueError):
        crt_split_bijection(5, 8, 1)
