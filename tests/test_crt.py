import random

import pytest

from quiddity import formulas, oracle, route
from quiddity.counter import (
    CapExceeded, dp_count, dp_vector, dp_vector_sequence, walk_cost)
from quiddity.crt import (
    Factorization,
    NonSquarefreeOddPart,
    assemble_count,
    crt_split_bijection,
    piece_counts,
    pieces,
    route_count,
    split,
)
from quiddity.formulas import UnsupportedCase
from quiddity.maps import verify_reciprocal
from quiddity.route import closed_form
from quiddity.modring import Modulus, factorize
from quiddity.oracle import NONUNIT, UNIT, BudgetExceeded, SetSpec, fixed
from quiddity.sl2 import (
    TARGET_NAMES, Mat2, continuant_product, identity, neg_identity, target_by_name)


def test_the_router_lives_in_route_and_crt_reads_it_back():
    # cli imports route_count from route, so --method dp and brute never
    # compile crt; crt's piece_counts calls the very same function.
    assert route_count is route.route_count
    assert route.route_count.__module__ == "quiddity.route"


def pm_id(size, n, sign=1):
    """The unconstrained +-Id spec of one size over Z/nZ."""
    mod = Modulus(n)
    return SetSpec(size, identity(mod) if sign == 1 else neg_identity(mod))


def formula_count(spec):
    """route_count's formula answer, or None where it refuses."""
    try:
        return route_count(spec, "formula")[0]
    except UnsupportedCase:
        return None


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
    parts = piece_counts(pm_id(5, 24))
    assert [(mp, src) for mp, _, src in parts] == [(8, "formula"), (3, "formula")]
    parts = piece_counts(pm_id(4, 12))
    assert [(mp, src) for mp, _, src in parts] == [(4, "formula"), (3, "dp")]
    parts = piece_counts(pm_id(3, 12))
    assert [(mp, src) for mp, _, src in parts] == [(4, "dp"), (3, "dp")]
    # per-sign even sizes over Z/8Z have no closed form either
    parts = piece_counts(pm_id(6, 24))
    assert [(mp, src) for mp, _, src in parts] == [(8, "dp"), (3, "formula")]


def test_piece_source_methods():
    with pytest.raises(UnsupportedCase):
        piece_counts(pm_id(3, 12), "formula")
    brute = piece_counts(pm_id(4, 12), "brute")
    auto = piece_counts(pm_id(4, 12), "auto")
    assert [(mp, cnt) for mp, cnt, _ in brute] == [(mp, cnt) for mp, cnt, _ in auto]


def test_piece_sources_follow_the_budget(monkeypatch):
    # Size 3: the Z/4Z piece's walk predicts 48 * 4 = 192 additions against
    # the oracle's 4 candidates (letter 1; the last two are forced); the
    # Z/3Z piece's 24 * 4 = 96 against 3.
    expected = piece_counts(pm_id(3, 12))
    monkeypatch.setenv("QUIDDITY_BUDGET", "100")
    parts = piece_counts(pm_id(3, 12))
    assert [(mp, src) for mp, _, src in parts] == [(4, "brute"), (3, "dp")]
    assert [cnt for _, cnt, _ in parts] == [cnt for _, cnt, _ in expected]
    with pytest.raises(CapExceeded):
        piece_counts(pm_id(3, 12), "dp")
    monkeypatch.setenv("QUIDDITY_BUDGET", "3")
    with pytest.raises(BudgetExceeded):
        piece_counts(pm_id(3, 12))


@pytest.mark.parametrize("constraints", [{}, {3: UNIT}, {2: NONUNIT}, {1: fixed(3)}],
                         ids=["free", "unit", "nonunit", "fixed"])
def test_auto_takes_the_dp_exactly_when_its_walk_fits(constraints):
    # route_count prices no DP: the DP refuses one addition short of
    # walk_cost, and that refusal sends auto to the oracle.  The S target
    # over Z/8Z has no closed form, so neither spec is counted by one.
    mod = Modulus(8)
    spec = SetSpec(5, target_by_name("s", mod), constraints)
    cost = walk_cost(spec.size, mod, dict(spec.constraints))
    want = dp_count(spec)
    assert route_count(spec, "auto", cost) == (want, "dp")
    assert route_count(spec, "auto", cost - 1) == (want, "brute")
    with pytest.raises(CapExceeded, match=f"^the DP needs {cost} additions, budget is {cost - 1}$"):
        route_count(spec, "dp", cost - 1)


def test_an_explicit_budget_reaches_every_piece(monkeypatch):
    # The same choices as above, with the budget passed in and the
    # environment left at its default.
    monkeypatch.delenv("QUIDDITY_BUDGET", raising=False)
    expected = piece_counts(pm_id(3, 12))
    parts = piece_counts(pm_id(3, 12), budget=100)
    assert [(mp, src) for mp, _, src in parts] == [(4, "brute"), (3, "dp")]
    assert [cnt for _, cnt, _ in parts] == [cnt for _, cnt, _ in expected]
    # one piece by brute force makes the whole count's source brute
    assert route_count(pm_id(3, 12), "auto", 100) == (dp_count(pm_id(3, 12)), "brute")
    # 80 sends the Z/3Z piece to brute force as well
    parts = piece_counts(pm_id(3, 12), budget=80)
    assert [(mp, src) for mp, _, src in parts] == [(4, "brute"), (3, "brute")]
    assert assemble_count(3, split(12), 1, budget=80) == assemble_count(3, split(12), 1)
    with pytest.raises(CapExceeded):
        assemble_count(3, split(12), 1, method="dp", budget=100)
    with pytest.raises(BudgetExceeded):
        assemble_count(3, split(12), 1, budget=3)


def test_odd_only_modulus_assembles_too():
    mod15 = Modulus(15)
    for size in (5, 6):
        for sign, target in ((1, identity(mod15)), (-1, neg_identity(mod15))):
            assert int(assemble_count(size, split(15), sign)) == dp_count(
                SetSpec(size, target))


# Sizes 3..9 that the formula method answers at +-Id: a 2^m piece needs
# size 4 or an odd size >= 5 (any even size >= 4 when m = 2), a prime piece
# size >= 5.  A composite modulus needs a closed form on every piece.
CLOSED_FORM_SIZES = {
    4: {4, 5, 6, 7, 8, 9}, 8: {4, 5, 7, 9}, 16: {4, 5, 7, 9},
    12: {5, 6, 7, 8, 9}, 20: {5, 6, 7, 8, 9}, 24: {5, 7, 9}, 40: {5, 7, 9},
    5: {5, 6, 7, 8, 9}, 7: {5, 6, 7, 8, 9},
}


@pytest.mark.parametrize("n", sorted(CLOSED_FORM_SIZES))
def test_closed_form_equals_the_dp_at_plus_minus_id(n):
    covered = set()
    for size in range(3, 10):
        for spec in (pm_id(size, n), pm_id(size, n, -1)):
            value = formula_count(spec)
            if value is not None:
                covered.add(size)
                assert value == dp_count(spec), spec
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
    assert formula_count(pm_id(7, 18)) is None  # Z/2Z, Z/9Z have none
    assert formula_count(pm_id(6, 24)) is None  # no per-sign 8-piece form
    assert closed_form(SetSpec(7, target_by_name("s", mod8))) is None
    assert closed_form(SetSpec(7, Mat2(2, 1, 1, 1, mod8), {2: UNIT})) is None
    # the Z/3Z piece has no unit-second-entry form
    assert formula_count(SetSpec(7, identity(mod24), {2: UNIT})) is None
    # closed_form itself answers prime powers only; route_count splits
    assert closed_form(pm_id(7, 24)) is None
    assert route_count(pm_id(7, 24), "formula") == (489216, "formula")
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
        for size in range(1, 13):
            for spec in (pm_id(size, n), pm_id(size, n, -1)):
                assert formula_count(spec) is None, spec
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
    assert [(mp, cnt) for mp, cnt, _ in piece_counts(pm_id(7, 18))] == [(2, 21), (9, 7371)]
    assert int(assemble_count(7, split(18), 1)) == 154791
    assert int(assemble_count(7, split(108), 1)) == 200609136


def test_two_part_only_assembly_is_the_plain_count():
    assert int(assemble_count(5, split(8), 1)) == 80


@pytest.mark.parametrize("size", [4, 5])
@pytest.mark.parametrize("sign", [1, -1])
def test_componentwise_split_is_a_bijection(size, sign):
    report = verify_reciprocal(crt_split_bijection(pm_id(size, 12, sign)))
    assert report.ok, report.describe()


@pytest.mark.parametrize("n", [18, 50])
@pytest.mark.parametrize("size", [4, 5])
def test_componentwise_split_over_z2_and_a_prime_square_is_a_bijection(n, size):
    for sign in (1, -1):
        report = verify_reciprocal(crt_split_bijection(pm_id(size, n, sign)))
        assert report.ok, report.describe()


def test_the_z50_split_fits_the_default_budget(monkeypatch):
    # Enumerating the domain is charged its 50**3 choices of letters 1..3
    # (the last two are forced) and the 5 * 50 values listed, not all 50**5
    # tuples.
    monkeypatch.delenv("QUIDDITY_BUDGET", raising=False)
    assert verify_reciprocal(crt_split_bijection(pm_id(5, 50))).ok
    with pytest.raises(BudgetExceeded, match="^enumeration needs 125250 candidates"):
        verify_reciprocal(crt_split_bijection(pm_id(5, 50)), budget=125249)


def test_split_bijection_needs_two_pieces():
    with pytest.raises(ValueError):
        crt_split_bijection(pm_id(5, 8))
    with pytest.raises(ValueError, match="non-unit"):
        crt_split_bijection(SetSpec(5, identity(Modulus(12)), {2: NONUNIT}))


def test_pieces_reduce_the_target_and_the_fixed_letters():
    spec = SetSpec(4, Mat2(2, 1, 1, 1, Modulus(12)), {1: UNIT, 3: fixed(7)})
    assert pieces(spec) == [
        SetSpec(4, Mat2(2, 1, 1, 1, Modulus(4)), {1: UNIT, 3: fixed(3)}),
        SetSpec(4, Mat2(2, 1, 1, 1, Modulus(3)), {1: UNIT, 3: fixed(1)})]
    assert pieces(pm_id(4, 8)) == [pm_id(4, 8)]
    with pytest.raises(ValueError, match="non-unit"):
        pieces(SetSpec(4, identity(Modulus(12)), {3: NONUNIT}))


@pytest.mark.parametrize("n", [12, 18])
@pytest.mark.parametrize("target, constraints", [
    ("s", {}), ("2,1,1,1", {}), ("t", {2: UNIT}), ("neg-s", {1: fixed(5)})],
    ids=["s", "explicit", "a2-unit", "a1=5"])
def test_componentwise_split_keeps_the_target_and_the_letters(n, target, constraints):
    mod = Modulus(n)
    matrix = (target_by_name(target, mod) if target in TARGET_NAMES
              else Mat2(*map(int, target.split(",")), mod))
    for size in (3, 4):
        spec = SetSpec(size, matrix, constraints)
        report = verify_reciprocal(crt_split_bijection(spec))
        assert report.ok, report.describe()
        assert report.domain_size == dp_count(spec)


DIFFERENTIAL_MODULI = (6, 10, 12, 15, 18, 20, 24, 30, 36, 45)


def _differential_menu(size: int, n: int, rng: random.Random) -> list[dict]:
    """Every constraint kind, two non-unit letters, and a three-letter mix."""
    def pos():
        return rng.randint(1, size)

    menu = [{}, {pos(): UNIT}, {pos(): NONUNIT}, {pos(): fixed(rng.randrange(n))}]
    if size >= 2:
        first, second = rng.sample(range(1, size + 1), 2)
        menu.append({first: NONUNIT, second: NONUNIT})
    if size >= 3:
        a, b, c = rng.sample(range(1, size + 1), 3)
        menu.append({a: UNIT, b: NONUNIT, c: fixed(rng.randrange(n))})
    return menu


@pytest.mark.parametrize("n", DIFFERENTIAL_MODULI)
def test_the_factored_count_equals_the_direct_ones(n):
    # auto splits every composite N into its prime-power pieces and takes a
    # non-unit letter as free minus unit; dp_count walks Z/NZ itself, and
    # the oracle enumerates it wherever its charge stays small.
    mod = Modulus(n)
    rng = random.Random(4000 + n)
    by_oracle = 0
    for size in range(1, 8):
        for constraints in _differential_menu(size, n, rng):
            letters = [rng.randrange(n) for _ in range(rng.randint(1, 6))]
            named = rng.choice(("id", "neg-id", "s", "t"))
            for target in (continuant_product(letters, mod), target_by_name(named, mod)):
                spec = SetSpec(size, target, constraints)
                factored, _ = route_count(spec, "auto")
                assert factored == dp_count(spec), spec
                try:
                    assert factored == oracle.count(spec, budget=100_000), spec
                    by_oracle += 1
                except BudgetExceeded:
                    pass
    assert by_oracle >= 40  # 48 at N = 45, every spec at N = 6
