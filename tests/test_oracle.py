import itertools
import math
import random
import sys
import tracemalloc
from collections import Counter

import pytest

from helpers import ivals, sl2_elements
from quiddity import oracle, spec as set_spec
from quiddity.counter import dp_count
from quiddity.formulas import u_count, w_odd_2m
from quiddity.modring import Modulus, NotAUnit, Residue, totient, units_of
from quiddity.oracle import (
    ANY,
    BudgetExceeded,
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
from quiddity.sl2 import (
    Mat2,
    TARGET_NAMES,
    continuant_entries,
    continuant_product,
    elementary,
    identity,
    neg_identity,
    s_mat,
    t_mat,
    target_by_name,
)

MOD8 = Modulus(8)


def test_size_two_forced_solution():
    got = list(solutions(SetSpec(2, neg_identity(MOD8))))
    assert [ivals(t) for t in got] == [(0, 0)]


def test_size_four_counts():
    assert count(SetSpec(4, identity(MOD8))) == 20
    assert count(SetSpec(4, neg_identity(MOD8))) == 8


def test_fixed_second_entry_counts_depend_on_the_value():
    assert count(SetSpec(5, identity(MOD8), {2: fixed(1)})) == 20
    assert count(SetSpec(5, identity(MOD8), {2: fixed(3)})) == 8


def test_stream_is_deterministic_and_sorted():
    spec = SetSpec(5, identity(MOD8), {2: UNIT})
    first = [ivals(t) for t in solutions(spec)]
    second = [ivals(t) for t in solutions(spec)]
    assert first == second == sorted(first)
    assert len(first) == 48
    for t in solutions(spec):
        assert spec.matches(t)


def test_matches_rejects_outsiders():
    spec = SetSpec(4, identity(MOD8))
    member = next(iter(solutions(spec)))
    assert spec.matches(member)
    assert not spec.matches(member[:3])
    bumped = (member[0] + 1,) + member[1:]
    assert not spec.matches(bumped)


def test_matches_refuses_letters_outside_the_ring_and_broken_constraints():
    spec = SetSpec(6, identity(MOD8), {2: UNIT, 3: NONUNIT, 4: fixed(3)})
    member = next(solutions(spec))
    assert spec.matches(member)
    # a letter v read as v + N has the same product mod N, but is no letter
    for i, a in enumerate(member):
        assert not spec.matches(member[:i] + (Residue(a.value + 8, Modulus(16)),) + member[i + 1:])
    assert not spec.matches(member[:5]) and not spec.matches(member + member[:1])
    plain = list(solutions(SetSpec(6, identity(MOD8))))
    assert [t for t in plain if spec.matches(t)] == list(solutions(spec))
    refused = [t for t in plain if not spec.matches(t)]
    # each constraint alone refuses some tuple that the other two accept
    assert any(not t[1].is_unit and not t[2].is_unit and t[3].value == 3 for t in refused)
    assert any(t[1].is_unit and t[2].is_unit and t[3].value == 3 for t in refused)
    assert any(t[1].is_unit and not t[2].is_unit and t[3].value != 3 for t in refused)


def test_constraints_filter_the_plain_stream():
    mod4 = Modulus(4)
    base = list(solutions(SetSpec(4, identity(mod4))))
    for cons, keep in [
        ({2: UNIT}, lambda t: t[1].is_unit),
        ({2: NONUNIT}, lambda t: not t[1].is_unit),
        ({2: fixed(1)}, lambda t: t[1].value == 1),
        ({3: fixed(2)}, lambda t: t[2].value == 2),
    ]:
        filtered = [t for t in base if keep(t)]
        assert list(solutions(SetSpec(4, identity(mod4), cons))) == filtered


@pytest.mark.parametrize("spec", [
    SetSpec(4, identity(MOD8)),
    SetSpec(5, identity(MOD8), {2: fixed(1)}),
    SetSpec(5, neg_identity(MOD8), {2: NONUNIT}),
    SetSpec(6, identity(MOD8), {2: UNIT}),
    SetSpec(6, s_mat(MOD8)),
])
def test_mitm_agrees_with_naive_for_every_split(spec):
    reference = count(spec, "naive")
    for split in range(1, spec.size):
        assert count(spec, "mitm", split=split) == reference


def test_auto_picks_mitm_for_wide_specs():
    spec = SetSpec(6, identity(MOD8))
    assert count(spec, "auto") == count(spec, "naive")


def test_budget_naive():
    spec = SetSpec(10, identity(MOD8))
    with pytest.raises(BudgetExceeded) as err:
        count(spec, "naive", budget=10_000)
    # letters 1..8 (the last two are forced), plus the 10 * 8 values listed
    assert err.value.required == 8 ** 8 + 10 * 8


def test_budget_mitm_counts_half_enumerations():
    spec = SetSpec(10, identity(MOD8))
    assert count(spec, "mitm", budget=8 ** 5 + 8 ** 5) == count(spec, "mitm")
    with pytest.raises(BudgetExceeded):
        count(spec, "mitm", budget=100)


def test_the_join_is_charged_for_the_suffix_it_walks():
    # Split 3 of size 7: a free junction letter 4 is not walked, so the join
    # examines 8**3 prefix and 8**3 suffix candidates; a constrained
    # junction is walked, and its letters count.
    spec = SetSpec(7, identity(MOD8))
    assert count(spec, "mitm", split=3, budget=1024) == count(spec, "naive")
    with pytest.raises(BudgetExceeded,
                       match="^enumeration needs 1024 candidates, budget is 1023$"):
        count(spec, "mitm", split=3, budget=1023)
    for junction, required in ((UNIT, 8 ** 3 + 4 * 8 ** 3), (fixed(1), 8 ** 3 + 8 ** 3)):
        pinned = SetSpec(7, identity(MOD8), {4: junction})
        with pytest.raises(BudgetExceeded) as err:
            count(pinned, "mitm", split=3, budget=required - 1)
        assert err.value.required == required
        assert count(pinned, "mitm", split=3, budget=required) == count(pinned, "naive")


def test_a_charge_too_long_to_print_is_named_by_its_digits():
    # Past the int-to-str limit a charge is named by the digits of the
    # power of 2 at its bit length, a lower bound found without str();
    # up to the limit it prints in full, as it always did.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert str(BudgetExceeded(10 ** 640 - 1, 5)) == (
            f"enumeration needs {'9' * 640} candidates, budget is 5")
        # 641 digits each: 10^640 >= 2^2126, of 640, and 10^641 - 1 >= 2^2129, of 641
        for required, bound in ((10 ** 640, 640), (10 ** 641 - 1, 641)):
            assert str(BudgetExceeded(required, 5)) == ("enumeration needs a count of "
                                                       f"candidates at least {bound} digits "
                                                       "long, budget is 5")
        assert BudgetExceeded(10 ** 640, 5).required == 10 ** 640
    finally:
        sys.set_int_max_str_digits(limit)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("QUIDDITY_BUDGET", "100")
    assert oracle.default_budget() == 100
    with pytest.raises(BudgetExceeded):
        count(SetSpec(5, identity(MOD8)))
    monkeypatch.delenv("QUIDDITY_BUDGET")
    assert oracle.default_budget() == oracle.DEFAULT_BUDGET


def test_partitioned_counts_sum_to_the_total():
    # Splitting the first position into fixed-value slices and summing the
    # slice counts must reproduce the undivided count.
    spec = SetSpec(5, identity(MOD8), {2: UNIT})
    total = count(spec)
    parts = sum(count(SetSpec(5, identity(MOD8), {1: fixed(a), 2: UNIT}))
                for a in range(8))
    assert parts == total == 48


@pytest.mark.parametrize("n,size", [(3, 5), (4, 5), (8, 4), (8, 5)])
def test_histogram_totality(n, size):
    mod = Modulus(n)
    hist = product_histogram(size, mod)
    assert sum(hist.values()) == n ** size
    for mat in hist:
        assert mat.det() == 1
    for name in ("id", "neg-id", "s"):
        target = target_by_name(name, mod)
        assert hist.get(target, 0) == count(SetSpec(size, target))


def test_zero_pair_brute_force():
    assert count_zero_pairs(2) == 4
    assert count_zero_pairs(3) == 12
    for m in range(2, 9):
        assert count_zero_pairs(m) == m * 2 ** (m - 1)


def test_psi_examples():
    one = Residue(1, MOD8)
    assert psi(one, one, one).value == 7
    assert psi(one, one, Residue(0, MOD8)).value == 7
    with pytest.raises(NotAUnit):
        psi(one, Residue(2, MOD8), one)


@pytest.mark.parametrize("n", [8, 16])
def test_psi_on_ints_equals_the_residue_formula(n):
    mod = Modulus(n)
    domain = oracle.psi_domain(mod)
    assert len(domain) == len(units_of(mod)) ** 2 * n
    for u, v, w in domain:
        assert psi(u, v, w) is ((v * w - 1) * (u * v - 1) - 1) * v.inverse()
    for v in (0, 2, n // 2, n - 2):
        with pytest.raises(NotAUnit, match=f"^{v} is not invertible mod {n}$"):
            psi(Residue(1, mod), Residue(v, mod), Residue(3, mod))


@pytest.mark.parametrize("n", [8, 9, 16])
def test_psi_is_the_top_left_entry_of_its_letters_product(n):
    # ((vw - 1)(uv - 1) - 1) v^-1 = uvw - u - w, the continuant of (u, v, w)
    mod = Modulus(n)
    for u, v, w in oracle.psi_domain(mod):
        assert psi(u, v, w).value == continuant_entries([u.value, v.value, w.value], n)[0]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_psi_fibers_share_one_size(m):
    mod = Modulus(1 << m)
    sizes = [len(psi_fiber(mod, x)) for x in units_of(mod)]
    assert sizes == [1 << (2 * m - 1)] * (1 << (m - 1))


def test_spec_validation():
    with pytest.raises(ValueError):
        SetSpec(0, identity(MOD8))
    with pytest.raises(ValueError):
        SetSpec(4, elementary_like_nonunimodular())
    with pytest.raises(ValueError):
        SetSpec(4, identity(MOD8), {5: UNIT})
    with pytest.raises(ValueError):
        SetSpec(4, identity(MOD8), [(2, UNIT), (2, NONUNIT)])


def elementary_like_nonunimodular():
    from quiddity.sl2 import Mat2
    return Mat2(2, 0, 0, 1, MOD8)


# ---------------------------------------------------------------------------
# differential check of the letter walk against plain enumeration


def _reference_values(n: int, constraint) -> list[int]:
    if constraint.kind == "unit":
        return [v for v in range(n) if math.gcd(v, n) == 1]
    if constraint.kind == "nonunit":
        return [v for v in range(n) if math.gcd(v, n) != 1]
    if constraint.kind == "fixed":
        return [constraint.value % n]
    return list(range(n))


def _reference_sets(size: int, mod: Modulus, constraints: dict) -> dict:
    """Every allowed tuple, grouped by continuant product, in lexicographic order."""
    values = [_reference_values(mod.n, constraints.get(p, ANY)) for p in range(1, size + 1)]
    groups: dict = {}
    for t in itertools.product(*values):
        groups.setdefault(continuant_product(t, mod), []).append(t)
    return groups


def _constraint_menu(size: int, n: int, rng: random.Random) -> list[dict]:
    def pos():
        return rng.randint(1, size)

    menu = [{}, {pos(): UNIT}, {pos(): NONUNIT}, {pos(): fixed(rng.randrange(n))},
            {pos(): ANY}]
    if size >= 2:
        menu.append({size - 1: fixed(rng.randrange(n)), size: fixed(rng.randrange(n))})
        menu.append({1: UNIT, size - 1: NONUNIT, size: UNIT})
    return menu


def _check_against_reference(size, mod, constraints, groups, targets):
    hist = product_histogram(size, mod, constraints)
    assert hist == {mat: len(ts) for mat, ts in groups.items()}
    for target in targets:
        spec = SetSpec(size, target, constraints)
        expected = groups.get(target, [])
        assert [ivals(t) for t in solutions(spec)] == expected, (spec, "solutions")
        assert count(spec, "naive") == len(expected), (spec, "naive")
        for split in range(1, size):
            assert count(spec, "mitm", split=split) == len(expected), (spec, split)


@pytest.mark.parametrize("n", range(2, 11))
def test_walk_matches_plain_enumeration(n):
    mod = Modulus(n)
    rng = random.Random(1000 + n)
    group = sl2_elements(mod)
    for size in range(1, 6):
        for constraints in _constraint_menu(size, n, rng):
            groups = _reference_sets(size, mod, constraints)
            targets = rng.sample(group, 3) + [identity(mod), neg_identity(mod), s_mat(mod)]
            targets += rng.sample(sorted(groups, key=lambda m: m.key()), min(3, len(groups)))
            _check_against_reference(size, mod, constraints, groups, targets)


@pytest.mark.parametrize("n", [4, 6, 9])
def test_fixed_last_letters_that_miss_the_forced_ones(n):
    # Fix the last two positions so that a prefix of a real solution forces
    # letters the constraint forbids: those tuples must drop out, and only
    # tuples whose forced letters agree with the fixed ones stay.
    mod = Modulus(n)
    for size in range(1, 6):
        plain = _reference_sets(size, mod, {})
        target = max(plain, key=lambda m: (len(plain[m]), -m.key()))
        t = plain[target][0]
        menus = [{size: fixed(t[-1] + 1)}, {size: fixed(t[-1])}]
        if size >= 2:
            menus += [{size - 1: fixed(t[-2] + 1), size: fixed(t[-1])},
                      {size - 1: fixed(t[-2]), size: fixed(t[-1] + 1)},
                      {size - 1: fixed(t[-2]), size: fixed(t[-1])}]
        for constraints in menus:
            groups = _reference_sets(size, mod, constraints)
            _check_against_reference(size, mod, constraints, groups, [target])


def test_refusals_keep_their_required_candidates():
    spec = SetSpec(7, identity(MOD8), {2: UNIT})
    naive = 8 ** 4 * 4 + 6 * 8 + 4  # letters 1..5 (the last two are forced), values listed
    # the histogram buckets letters 1..6 and folds letter 7 onto at most
    # |SL2(Z/8Z)| = 384 distinct products, 8 updates each
    leaves = 8 ** 5 * 4 + 384 * 8
    mitm = 8 * 4 * 8 + 8 ** 3  # split after position 3; free junction 4 not walked
    with pytest.raises(BudgetExceeded) as err:
        count(spec, "naive", budget=naive - 1)
    assert err.value.required == naive
    with pytest.raises(BudgetExceeded) as err:
        next(solutions(spec, budget=naive - 1))
    assert err.value.required == naive
    with pytest.raises(BudgetExceeded) as err:
        product_histogram(7, MOD8, {2: UNIT}, budget=leaves - 1)
    assert err.value.required == leaves
    with pytest.raises(BudgetExceeded) as err:
        count(spec, "mitm", split=3, budget=mitm - 1)
    assert err.value.required == mitm
    expected = count(spec, "naive", budget=naive)
    assert count(spec, "mitm", split=3, budget=mitm) == expected
    assert sum(1 for _ in solutions(spec, budget=naive)) == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
def test_the_folded_histogram_buckets_what_a_direct_walk_buckets(n):
    # The last letter free, a unit, a non-unit or fixed: the fold must give
    # the key -> count mapping of bucketing every tuple one by one.
    mod = Modulus(n)
    for size in range(1, 6):
        for last in (ANY, UNIT, NONUNIT, fixed(n - 1)):
            constraints = {size: last}
            values = [_reference_values(n, constraints.get(p, ANY)) for p in range(1, size + 1)]
            direct = {}
            for t in itertools.product(*values):
                mat = continuant_product(t, mod)
                direct[mat] = direct.get(mat, 0) + 1
            assert product_histogram(size, mod, constraints) == direct, (n, size, last)


def test_the_histogram_folds_only_where_that_walks_fewer_candidates():
    # Size 2: the fold would be charged 8 + 384 * 8, more than the 64
    # tuples, so every tuple is walked and charged.
    with pytest.raises(BudgetExceeded) as err:
        product_histogram(2, MOD8, budget=63)
    assert err.value.required == 64
    assert sum(product_histogram(2, MOD8, budget=64).values()) == 64
    # Size 7, letter 2 a unit: 8**5 * 4 prefix leaves, then one update per
    # letter onto each of at most |SL2(Z/8Z)| = 384 distinct products.
    walked = 131_072 + 384 * 8
    with pytest.raises(BudgetExceeded) as err:
        product_histogram(7, MOD8, {2: UNIT}, budget=walked - 1)
    assert err.value.required == walked == 134_144
    assert sum(product_histogram(7, MOD8, {2: UNIT}, budget=walked).values()) == 8 ** 6 * 4


def test_auto_runs_the_plan_charged_least():
    # Six free letters: 8**4 + 48 naive candidates but 576 for the join, so
    # a budget of 1024 admits only the join.  With letter 1 fixed the naive
    # walk needs 8**3 + 41, the join only 128, so auto asks for 128.  Size 3
    # with letter 2 a unit over Z/7Z: the naive walk needs 7 + 20, the join
    # 43, so auto asks for 27.
    wide = SetSpec(6, identity(MOD8))
    assert count(wide, budget=1024) == count(wide, "naive")
    with pytest.raises(BudgetExceeded) as err:
        count(wide, budget=575)
    assert err.value.required == 576
    narrow = SetSpec(6, identity(MOD8), {1: fixed(1)})
    assert count(narrow, budget=128) == count(narrow, "naive")
    with pytest.raises(BudgetExceeded) as err:
        count(narrow, budget=127)
    assert err.value.required == 128
    short = SetSpec(3, identity(Modulus(7)), {2: UNIT})
    assert oracle._choose_join(short).walked == 43
    assert count(short, budget=27) == count(short, "naive")
    with pytest.raises(BudgetExceeded) as err:
        count(short, budget=26)
    assert err.value.required == 27


def test_a_tie_goes_to_the_naive_walk(monkeypatch):
    # Z/5Z, size 3, letters 1 and 2 units: the naive walk is charged 4 + 13,
    # the join at split 2 its 16 prefix leaves and one lookup of the target.
    spec = SetSpec(3, identity(Modulus(5)), {1: UNIT, 2: UNIT})
    assert oracle._solve_cost(spec) == oracle._choose_join(spec).walked == 17
    expected = count(spec, "naive")
    monkeypatch.setattr(oracle, "_count_mitm", lambda *args: pytest.fail("the join ran"))
    assert count(spec, budget=17) == expected


def test_auto_admits_exactly_the_cheaper_plan_over_a_seeded_grid():
    # N = 2..16 and sizes 1..7, each constraint kind at each position, with
    # a seeded target among the six named ones and one explicit one.  Walks
    # stop at 20,000 naive candidates.
    rng = random.Random(35)
    plans, targets_seen, ran = Counter(), set(), 0
    for n in range(2, 17):
        mod = Modulus(n)
        targets = [target_by_name(name, mod) for name in TARGET_NAMES] + [Mat2(2, 1, 1, 1, mod)]
        for size in range(1, 8):
            menus = [{}] + [{pos: con} for pos in range(1, size + 1)
                            for con in (UNIT, NONUNIT, fixed(rng.randrange(n)))]
            for constraints in menus:
                target = rng.choice(targets)
                spec = SetSpec(size, target, constraints)
                naive = oracle._solve_cost(spec)
                if naive > 20_000:
                    continue
                join = oracle._choose_join(spec) if size > 1 else None
                cheapest = naive if join is None else min(naive, join.walked)
                plans[cheapest == naive] += 1
                assert count(spec, budget=cheapest) == count(spec, "naive"), spec
                with pytest.raises(BudgetExceeded) as err:
                    count(spec, budget=cheapest - 1)
                assert err.value.required == cheapest, spec
                targets_seen.add(targets.index(target))
                ran += 1
    assert ran > 1000 and plans[True] > 0 and plans[False] > 0, (ran, plans)
    assert targets_seen == set(range(7))


def test_a_split_is_checked_whatever_the_method():
    spec = SetSpec(4, identity(MOD8))
    for method in ("auto", "mitm"):
        with pytest.raises(ValueError, match="^split 9 outside 1..3$"):
            count(spec, method, split=9)
    for split in (2, 9):
        with pytest.raises(ValueError, match="^the naive walk takes no split$"):
            count(spec, "naive", split=split)


def test_auto_runs_the_join_at_a_given_split():
    # The naive walk is charged 27, less than either join, yet a given
    # split runs the join there: 7 + 6 * 7 candidates at split 1.
    spec = SetSpec(3, identity(Modulus(7)), {2: UNIT})
    assert oracle._join(spec, 1, spec.position_counts()).walked == 49
    with pytest.raises(BudgetExceeded) as err:
        count(spec, split=1, budget=48)
    assert err.value.required == 49
    assert count(spec, split=1, budget=49) == count(spec, "naive")


def test_the_join_reaches_a_count_the_naive_walk_is_refused():
    # Z/521Z, size 5: the naive walk would be charged 521**3 + 5 * 521,
    # past the default budget; the join at split 2 walks 542,882.
    spec = SetSpec(5, identity(Modulus(521)))
    assert oracle._solve_cost(spec) == 141_423_366 > oracle.DEFAULT_BUDGET
    assert oracle._choose_join(spec).walked == 542_882
    assert count(spec, budget=oracle.DEFAULT_BUDGET) == int(u_count(5, 521, 1)) == 271_442


def test_a_hopeless_long_tuple_is_refused_by_a_bound_on_every_join():
    # Z/2Z, size 100000: every join walks at least 2 sqrt(2^99998 / 2), past
    # the budget and past the digits Python prints, so no split is priced
    # and the refusal names that bound by its digits.  The bound's bit length
    # is read from logarithms and the power of two below it is charged, so
    # the bound itself is never formed.
    spec = SetSpec(100_000, identity(Modulus(2)))
    for method in ("auto", "mitm"):
        with pytest.raises(BudgetExceeded) as err:
            count(spec, method, budget=oracle.DEFAULT_BUDGET)
        assert err.value.required == 1 << 49_999 <= 2 * math.isqrt(2 ** 99_997) < 1 << 50_000
        assert str(err.value) == ("enumeration needs a count of candidates at least 15052 "
                                  "digits long, budget is 134217728")
    assert str(BudgetExceeded(5, 4, at_least=True)) == (
        "enumeration needs at least 5 candidates, budget is 4")


def test_the_bound_bits_are_read_from_logarithms():
    # Letter counts as specs have them: N, phi(N), N - phi(N) and 1.  The
    # length read from logarithms never exceeds the bound's, and it falls
    # short only where P / max(c) is a power of two with the largest count
    # at an end alone, the one cancellation left to floating point.
    rng, short = random.Random(11), 0
    for _ in range(3000):
        n = rng.randint(2, 300)
        phi = totient(n)
        sizes = rng.choices((n, phi, n - phi, 1), [rng.random() for _ in range(4)],
                            k=rng.choice((rng.randint(2, 40), rng.randint(2, 2000))))
        top, product = max(sizes), math.prod(sizes[1:-1])
        exact = (2 * math.isqrt(product // top)).bit_length()
        got = oracle._bound_bits(sizes)
        assert got <= exact, (n, sizes)
        if got < exact:
            ratio, rest = divmod(product, top)
            assert not rest and ratio & (ratio - 1) == 0 and top not in sizes[1:-1], (n, sizes)
            short += 1
    assert short < 10


def test_a_bound_that_prints_leaves_the_exact_charge_named():
    # Z/2Z, size 2000: the bound is past the budget but prints, so every
    # split is priced and the refusal names the cheapest join's charge.
    spec = SetSpec(2000, identity(Modulus(2)))
    with pytest.raises(BudgetExceeded) as err:
        count(spec, budget=oracle.DEFAULT_BUDGET)
    assert err.value.required == oracle._choose_join(spec).walked
    assert str(err.value).startswith(f"enumeration needs {err.value.required} candidates")


@pytest.mark.parametrize("name", ["ANY", "BudgetExceeded", "Constraint", "DEFAULT_BUDGET",
                                  "NONUNIT", "SetSpec", "UNIT", "allowed_values",
                                  "default_budget", "fixed", "_admit"])
def test_the_oracle_rebinds_the_set_spec_names(name):
    # defined once, in ``spec``; the oracle's names are the same objects
    assert getattr(oracle, name) is getattr(set_spec, name)


def test_membership_cache_leaves_equality_alone():
    spec = SetSpec(5, identity(MOD8), {2: UNIT, 4: fixed(3)})
    fresh = SetSpec(5, identity(MOD8), {2: UNIT, 4: fixed(3)})
    member = next(solutions(spec))
    assert spec.matches(member)
    assert not spec.matches((member[0], member[1] + 1) + member[2:])
    assert not spec.matches(member[:3] + (member[3] + 1,) + member[4:])
    assert spec == fresh and hash(spec) == hash(fresh)


def test_specs_differing_in_one_field_are_unequal():
    # equality compares fields, not hashes: each of these differs from
    # spec in one field alone
    spec = SetSpec(5, identity(MOD8), {2: UNIT, 4: fixed(3)})
    mod16 = Modulus(16)
    others = [SetSpec(4, identity(MOD8), {2: UNIT, 4: fixed(3)}),
              SetSpec(5, neg_identity(MOD8), {2: UNIT, 4: fixed(3)}),
              SetSpec(5, identity(MOD8), {2: UNIT, 4: fixed(5)}),
              SetSpec(5, identity(MOD8), {2: NONUNIT, 4: fixed(3)}),
              SetSpec(5, identity(mod16), {2: UNIT, 4: fixed(3)})]
    for other in others:
        assert spec != other and other != spec, other
    assert spec != (5, identity(MOD8), spec.constraints)


def _walked_from_values(spec, split):
    """The candidates the join at ``split`` walks, from listed values: the
    prefix, or, when that is fewer before a junction letter that takes all
    N, letters 2..k and a fold of letter 1 onto at most N^2 top rows; and
    the suffix without such a junction letter, or, when that is fewer,
    letters k+2..n-1 and a probe per letter n of each of their at most
    N^2 bottom rows."""
    sizes = [len(values) for values in spec.position_values()]
    n = spec.modulus.n
    free = sizes[split] == n
    prefix = math.prod(sizes[:split])
    suffix = math.prod(sizes[split + free:])
    if free:
        inner = math.prod(sizes[1:split])
        prefix = min(prefix, inner + min(n * n, inner) * sizes[0])
        inner = math.prod(sizes[split + 1:-1])
        suffix = min(suffix, inner + min(n * n, inner) * sizes[-1])
    return prefix + suffix


def _walked_unfolded(spec, split):
    """The same without the fold: every prefix leaf is walked."""
    sizes = spec.position_counts()
    free = sizes[split] == spec.modulus.n
    return math.prod(sizes[:split]) + math.prod(sizes[split + free:])


def _split_from_values(spec):
    """The first split walking the fewest candidates, from listed values."""
    costs = [_walked_from_values(spec, k) for k in range(1, spec.size)]
    return costs.index(min(costs)) + 1


def test_position_counts_match_the_listed_values():
    for n in range(2, 41):
        mod = Modulus(n)
        spec = SetSpec(5, identity(mod), {1: fixed(n + 1), 2: UNIT, 3: NONUNIT, 5: ANY})
        assert spec.position_counts() == [len(v) for v in spec.position_values()]
        assert spec.naive_candidates() == math.prod(len(v) for v in spec.position_values())
        for kind in (fixed(3), UNIT, NONUNIT, ANY):
            for pos in (1, 3, 4):
                spec = SetSpec(4, identity(mod), {pos: kind})
                assert spec.position_counts() == [len(v) for v in spec.position_values()]
                assert oracle._choose_join(spec).split == _split_from_values(spec)


# ---------------------------------------------------------------------------
# where the join splits


def _balanced_split(spec):
    """The split of balanced halves: the first minimizing the larger one."""
    sizes = spec.position_counts()
    costs = [max(math.prod(sizes[:k]), math.prod(sizes[k:])) for k in range(1, spec.size)]
    return costs.index(min(costs)) + 1


def _junction_menus(size):
    """Constraints that leave a junction free, unit, non-unit or fixed,
    alone or beside a second constrained position."""
    yield {}
    for kind in (UNIT, NONUNIT, fixed(1)):
        for pos in range(1, size + 1):
            yield {pos: kind}
            mirror = size + 1 - pos
            if mirror != pos:
                yield {pos: kind, mirror: UNIT}


@pytest.mark.parametrize("n", range(2, 41))
def test_the_split_walks_no_more_than_balanced_halves(n):
    # The chosen split is never charged more than the balanced one, so no
    # join admitted under the balanced rule is refused; the refusal names
    # the walked count at the chosen split.
    target = identity(Modulus(n))
    for size in range(2, 11):
        for constraints in _junction_menus(size):
            spec = SetSpec(size, target, constraints)
            k = oracle._choose_join(spec).split
            walked = _walked_from_values(spec, k)
            assert k == _split_from_values(spec), (spec, k)
            assert walked <= _walked_from_values(spec, _balanced_split(spec)), spec
            # nor more than the fewest a join without the fold walks
            assert walked <= min(_walked_unfolded(spec, j) for j in range(1, size)), spec
            with pytest.raises(BudgetExceeded) as err:
                count(spec, "mitm", budget=walked - 1)
            assert err.value.required == walked


def test_a_size_4_join_over_a_large_prime_keeps_bounded_letter_tables():
    # At split 1 over Z/pZ no letter-table key repeats: tables that kept
    # every row and pick peaked at 41.1 MB here.
    value, peak = _traced_peak(lambda: count(SetSpec(4, identity(Modulus(1009)))))
    assert value == 2017
    assert peak < 8_000_000, peak


def test_a_letter_table_past_its_room_keeps_every_row_once_keys_repeat():
    # Z/53Z has more keys than one table's room: a first pass over them all
    # fills the room and keeps no more, and the second pass's misses prove
    # that keys repeat, so from then on every row is kept.
    n = 53
    table = oracle._LetterRows(list(range(n)), n, n, 0)
    for key in range(n * n):
        table[key]
    assert len(table) + len(table.picks) <= table.room < n * n
    for key in range(n * n):
        assert table[key] == tuple((a * (key // n) - key % n) % n * n for a in range(n))
    assert len(table) == n * n


def test_the_nonunits_are_the_multiples_of_the_primes_of_n():
    for n in range(2, 301):
        assert oracle.allowed_values(Modulus(n), NONUNIT) == tuple(
            v for v in range(n) if math.gcd(v, n) != 1), n


def _traced_peak(run):
    """run() and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_unit_second_letter_moves_the_split_before_the_free_junction():
    # Z/32Z, size 7, a2 a unit: balanced halves split after position 4.
    # There the prefix walks letters 2..4 and folds letter 1 onto their
    # top rows, 16*32*32 + 32**2 * 32 = 49,152, and the suffix 32*32 more:
    # 50,176.  After position 3 the free letter 4 is not walked and the
    # prefix is too short to fold, which leaves 32*16*32 + 32**3 = 49,152.
    mod = Modulus(32)
    spec = SetSpec(7, identity(mod), {2: UNIT})
    assert _balanced_split(spec) == 4 and oracle._choose_join(spec).split == 3
    sizes = spec.position_counts()
    # neither suffix folds letter 7: 32 + 32*32 probes is more than 32*32
    assert oracle._join(spec, 4, sizes) == (4, 50_176, True, True, False)
    assert oracle._join(spec, 3, sizes) == (3, 49_152, True, False, False)
    with pytest.raises(BudgetExceeded) as err:
        count(spec, "mitm", split=4, budget=49_152)
    assert err.value.required == 50_176
    with pytest.raises(BudgetExceeded,
                       match="^enumeration needs 49152 candidates, budget is 49151$"):
        count(spec, "mitm", budget=49_151)
    # Both prefixes keep top rows alone: split 4 peaks at about 650 KB,
    # split 3 at about 460 KB.
    got, peak = _traced_peak(lambda: count(spec, "mitm", budget=49_152))
    assert peak < 2_500_000, peak
    # 720,896 is also the naive count, whose walk of 32*16*32**3 prefixes
    # is too slow for the suite; here the join at the balanced split stands
    # in for it, as every split matches the naive count in the grids below.
    assert got == count(spec, "mitm", split=4) == 720_896


def test_the_streamed_sides_hold_no_list_of_leaves():
    # Z/8Z, size 12: the join walks 8**4 prefix leaves and folds letter 1
    # onto their top rows, and past the free letter 6 walks 8**5 suffix
    # leaves and folds letter 12 onto their bottom rows, but keeps at most
    # 8**2 rows either side.  A list of the suffix's leaves would hold
    # 256 KB of references; the join peaks at about 20 KB.
    spec = SetSpec(12, identity(MOD8))
    assert oracle._choose_join(spec) == (5, 4096 + 64 * 8 + 8 ** 5 + 64 * 8, True, True, True)
    got, peak = _traced_peak(lambda: count(spec, "mitm"))
    assert peak < 64 * 1024, peak
    assert got == count(spec, "mitm", split=6)


def test_the_fold_pins_its_charge_and_keeps_less():
    # Z/16Z, size 10, splits after position 4: letters 2..4 walk 16**3
    # leaves, letter 1 folds onto at most 16**2 top rows, 16**3 updates;
    # past the free letter 5, letters 6..9 walk 16**4 leaves and letter 10
    # probes each of their at most 16**2 bottom rows 16 times, 16**3
    # probes: 77,824.  Walking every prefix leaf and every suffix leaf
    # would charge 16**4 + 16**5 = 1,114,112 at best.
    mod = Modulus(16)
    spec = SetSpec(10, identity(mod))
    assert oracle._choose_join(spec) == (4, 77_824, True, True, True)
    assert min(_walked_unfolded(spec, k) for k in range(1, 10)) == 1_114_112
    with pytest.raises(BudgetExceeded,
                       match="^enumeration needs 77824 candidates, budget is 77823$"):
        count(spec, "mitm", budget=77_823)
    got, peak = _traced_peak(lambda: count(spec, "mitm", budget=77_824))
    assert got == dp_count(spec)
    # The whole join keeps less than bucketing the unfolded join's best
    # prefix, letters 1..4, by full product key.
    values = spec.position_values()
    _, bucketed = _traced_peak(lambda: oracle._half_products(values[:4], 16))
    assert peak < bucketed, (peak, bucketed)


@pytest.mark.parametrize("last", [None, UNIT, NONUNIT, fixed(1)],
                         ids=["free", "unit", "nonunit", "fixed"])
def test_the_suffix_fold_matches_the_naive_walk_at_every_split(last):
    # The suffix fold is forced at every split where it can run, a free
    # junction and two or more suffix letters, cheaper or not: split
    # size - 3 leaves a two-letter suffix, whose walk is one letter into
    # bottom rows.  The last letter is free or constrained, alone or beside
    # a unit letter n - 1 or a non-unit letter 1.
    ran = 0
    for n in range(2, 9):
        mod = Modulus(n)
        targets = (identity(mod), neg_identity(mod), s_mat(mod), t_mat(mod),
                   Mat2(2, 1, 1, 1, mod))
        for size in range(3, 9):
            if n ** (size - 2) > 2500:
                break
            ends = {} if last is None else {size: last}
            for constraints in (ends, {**ends, size - 1: UNIT}, {**ends, 1: NONUNIT}):
                for target in targets:
                    spec = SetSpec(size, target, constraints)
                    sizes = spec.position_counts()
                    reference = oracle._count_naive(spec)
                    for split in range(1, size - 2):
                        join = oracle._join(spec, split, sizes)
                        if join.free:
                            got = oracle._count_mitm(spec, join._replace(fold_last=True))
                            assert got == reference, (spec, split)
                            ran += 1
                        assert count(spec, "mitm", split=split) == reference, (spec, split)
    assert ran > 500, ran


@pytest.mark.parametrize("last", [UNIT, NONUNIT], ids=["unit", "nonunit"])
def test_the_join_folds_a_constrained_last_letter_where_that_is_cheaper(last):
    # Z/8Z, size 10, a unit or non-unit last letter: its 4 letters probe
    # each of at most 8**2 bottom rows, fewer than the leaves of walking it.
    spec = SetSpec(10, s_mat(MOD8), {10: last})
    join = oracle._choose_join(spec)
    assert join.fold_last
    assert count(spec, "mitm") == dp_count(spec)
    assert oracle._count_mitm(spec, join._replace(fold_last=False)) == dp_count(spec)


def test_the_suffix_fold_cuts_the_charge_at_target_s():
    # Z/16Z, size 10: split 4 walks 16**3 + 16**3 prefix and 16**4 + 16**3
    # suffix candidates, 77,824 (135,168 folding the prefix alone).
    # Z/18Z, size 9: split 4 walks 18**3 + 18**3 each side, 23,328
    # (116,640 folding the prefix alone).
    for n, size, walked in ((16, 10, 77_824), (18, 9, 23_328)):
        spec = SetSpec(size, s_mat(Modulus(n)))
        assert oracle._choose_join(spec) == (4, walked, True, True, True), (n, size)
        assert _walked_from_values(spec, 4) == walked


def test_the_suffix_fold_admits_size_15_over_z16_at_the_default_budget():
    # Folding the prefix alone charges 16**6 + 16**3 + 16**7 at best;
    # folding both sides, letters 2..7 and 9..14 walk 16**6 each and each
    # fold adds 16**3, at split 7.  Only
    # the plan is priced: count refuses a budget one short of it, which
    # shows the admitted plan is the one priced, before any walk runs.
    spec = SetSpec(15, s_mat(Modulus(16)))
    join = oracle._choose_join(spec)
    assert join == (7, 2 * (16 ** 6 + 16 ** 3), True, True, True)
    assert join.walked <= oracle.DEFAULT_BUDGET < 16 ** 6 + 16 ** 3 + 16 ** 7
    with pytest.raises(BudgetExceeded) as err:
        count(spec, "mitm", budget=join.walked - 1)
    assert err.value.required == join.walked


def _random_join_specs(rng, n):
    """Seeded specs over small moduli, with every kind of letter."""
    kinds = (UNIT, NONUNIT, fixed(1), fixed(2))
    for _ in range(n):
        mod = Modulus(rng.randint(2, 9))
        size = rng.randint(2, 9)
        constraints = {p: rng.choice(kinds) for p in range(1, size + 1) if rng.random() < 0.3}
        target = rng.choice((identity(mod), neg_identity(mod), s_mat(mod), t_mat(mod)))
        yield SetSpec(size, target, constraints)


class _CountedTops(Counter):
    """Prefix top rows that count the probes read through ``get``."""

    probes = 0

    def get(self, key, default=None):
        _CountedTops.probes += 1
        return super().get(key, default)


def test_the_join_walks_what_it_is_charged(monkeypatch):
    # Every leaf either side of the join streams, every update of the
    # prefix fold and every probe of the suffix fold is counted; an empty
    # suffix, past a free last letter, is its one leaf, the lookup of the
    # target's bottom row.  Without a fold that is exactly the charge; a
    # fold's N^2 bound on the rows it folds onto may overcharge it.
    leaves, rows = [0], []
    leaf_keys, half_products = oracle._leaf_keys, oracle._half_products
    prefix_tops = oracle._prefix_tops

    def counted_leaf_keys(*args):
        for key in leaf_keys(*args):
            leaves[0] += 1
            yield key

    def counted_half_products(values, N, top_row=False):
        products = half_products(values, N, top_row)
        rows.append(len(products))
        return products

    monkeypatch.setattr(oracle, "_leaf_keys", counted_leaf_keys)
    monkeypatch.setattr(oracle, "_half_products", counted_half_products)
    monkeypatch.setattr(oracle, "_prefix_tops", lambda *args: _CountedTops(prefix_tops(*args)))
    folded = folded_last = exact = 0
    for spec in _random_join_specs(random.Random(20), 150):
        sizes = spec.position_counts()
        for split in range(1, spec.size):
            join = oracle._join(spec, split, sizes)
            if join.walked > 20_000:
                continue
            leaves[0], rows[:], _CountedTops.probes = 0, [], 0
            count(spec, "mitm", split=split, budget=join.walked)
            # the prefix fold adds each of letter 1's values to each top
            # row of letters 2..k, the one bucketing the prefix runs; the
            # suffix fold probes the prefix top rows once per letter n and
            # bottom row of letters k+2..n-1, whose walk streams its leaves
            walked = leaves[0] + (rows[0] * sizes[0] if join.fold else 0)
            walked += _CountedTops.probes if join.fold_last else 0
            walked += join.free and split == spec.size - 1
            folded += join.fold
            folded_last += join.fold_last
            if join.fold or join.fold_last:
                assert walked <= join.walked, (spec, join)
            else:
                exact += 1
                assert walked == join.walked, (spec, join)
    assert folded > 50 and folded_last > 50 and exact > 250, (folded, folded_last, exact)


# ---------------------------------------------------------------------------
# the bucket walk, its last letter expanded through tables


def _direct_histogram(values, N, top_row):
    """Bucket every tuple of letters by its continuant product, one by one."""
    hist = {}
    for letters in itertools.product(*values):
        p, q, r, s = continuant_entries(letters, N)
        key = p * N + q if top_row else ((p * N + q) * N + r) * N + s
        hist[key] = hist.get(key, 0) + 1
    return hist


def _random_walk_cases(rng, n):
    """Seeded (modulus, size, constraints) with every kind of letter."""
    kinds = (UNIT, NONUNIT, fixed(0), fixed(1), fixed(3))
    for _ in range(n):
        mod = Modulus(rng.randint(2, 8))
        size = rng.randint(1, 7)
        yield mod, size, {p: rng.choice(kinds) for p in range(1, size + 1) if rng.random() < 0.3}


def test_the_bucket_walk_buckets_what_a_direct_walk_buckets():
    for mod, size, constraints in _random_walk_cases(random.Random(22), 120):
        values = SetSpec(size, identity(mod), constraints).position_values()
        N = mod.n
        if math.prod(map(len, values)) > 20_000:
            continue
        for top_row in (False, True):
            got = oracle._half_products(values, N, top_row)
            assert got == _direct_histogram(values, N, top_row), (N, size, constraints)
        hist = product_histogram(size, mod, constraints)
        assert {mat.key(): times for mat, times in hist.items()} == \
            _direct_histogram(values, N, False)


def test_the_join_agrees_with_the_naive_walk_on_long_tuples_over_small_rings():
    rng = random.Random(23)
    for mod, size, constraints in _random_walk_cases(rng, 60):
        # small rings and long tuples, so that a half reaches N^2 states
        mod, size = Modulus(mod.n // 2 + 1), size + 4
        constraints = {p + 2: kind for p, kind in constraints.items()}
        target = rng.choice((identity(mod), neg_identity(mod), s_mat(mod), t_mat(mod)))
        spec = SetSpec(size, target, constraints)
        assert count(spec, "mitm") == count(spec, "naive"), spec


def _random_wide_ring_cases(rng, n):
    """Seeded (modulus, size, constraints) over N = 9..40, where unit and
    non-unit letter lists can be short next to the ring."""
    kinds = (UNIT, NONUNIT, fixed(0), fixed(1), fixed(3))
    for _ in range(n):
        mod = Modulus(rng.randint(9, 40))
        size = rng.randint(1, 6)
        yield mod, size, {p: rng.choice(kinds) for p in range(1, size + 1) if rng.random() < 0.6}


def test_the_bucket_walk_buckets_what_a_direct_walk_buckets_over_wider_rings():
    checked = 0
    for mod, size, constraints in _random_wide_ring_cases(random.Random(24), 150):
        values = SetSpec(size, identity(mod), constraints).position_values()
        N = mod.n
        if math.prod(map(len, values)) > 20_000:
            continue
        checked += 1
        for top_row in (False, True):
            got = oracle._half_products(values, N, top_row)
            assert got == _direct_histogram(values, N, top_row), (N, size, constraints)
        hist = product_histogram(size, mod, constraints)
        assert {mat.key(): times for mat, times in hist.items()} == \
            _direct_histogram(values, N, False)
    assert checked > 50, checked


def test_the_join_agrees_with_the_naive_walk_over_wider_rings():
    rng = random.Random(25)
    checked = 0
    for mod, size, constraints in _random_wide_ring_cases(rng, 150):
        size += 1
        target = rng.choice((identity(mod), neg_identity(mod), s_mat(mod), t_mat(mod)))
        spec = SetSpec(size, target, constraints)
        if oracle._solve_cost(spec) > 20_000:
            continue
        checked += 1
        assert count(spec, "mitm") == count(spec, "naive"), spec
    assert checked > 50, checked


@pytest.mark.parametrize("n", [2, 3, 4, 8, 9, 12, 16, 25, 27, 32, 64, 97, 257])
def test_every_letter_row_is_its_definition(n):
    # Rows are picked in C from a rotation, or built entry by entry when
    # they are short next to the ring; either way each must be the row
    # the definition gives.  Every (scale, lift) a caller passes, on
    # keys that revisit their x and their y.  At n = 257 a free or unit
    # table stops keeping rows before the last keys, which are revisited
    # and made afresh.
    mod = Modulus(n)
    menus = [list(range(n)), ivals(units_of(mod)),
             [v for v in range(n) if math.gcd(v, n) != 1], [n - 1], [1, n // 2]]
    pairs = [(n, 0), (1, 0), (n ** 3, n), (n * n, 1), (n, n ** 3), (1, n * n)]
    rng = random.Random(n)
    keys = rng.sample(range(n * n), min(n * n, 300))
    picked = 0
    for letters in menus:
        for scale, lift in pairs:
            table = oracle._LetterRows(letters, n, scale, lift)
            for key in keys + keys[:20] + keys[-20:]:
                x, y = divmod(key, n)
                assert list(table[key]) == [(a * x - y) % n * scale + x * lift
                                            for a in letters], (letters, scale, lift, key)
            picked += bool(table.picks)
    # free letters are always picked from a rotation, one letter never is
    assert 0 < picked < len(menus) * len(pairs), picked


# ---------------------------------------------------------------------------
# the join's free junction letter


@pytest.mark.parametrize("n", range(2, 11))
def test_a_free_letter_sums_the_buckets_over_one_top_row(n):
    # Summed over x, hist[E(x)^-1 R] counts the products whose top row is
    # R's bottom row: the join probes that sum instead of walking x.
    mod = Modulus(n)
    hist = product_histogram(3, mod)
    tops = {}
    for mat, times in hist.items():
        a, b, _, _ = mat.entries()
        tops[a, b] = tops.get((a, b), 0) + times
    for r in sl2_elements(mod):
        summed = sum(hist.get(elementary(x, mod).inverse() @ r, 0) for x in range(n))
        assert summed == tops.get(r.entries()[2:], 0), r


@pytest.mark.parametrize("n", [5, 6, 8])
def test_join_at_every_split_past_size_five(n):
    # Position k + 1 is the junction of split k: free under {}, and unit,
    # non-unit or fixed at some splits of the other sets; a fixed last
    # position makes split n - 1 probe full keys, a free one reads the
    # folded table alone.
    mod = Modulus(n)
    for size in (6, 7):
        menus = [{}, {2: UNIT, 4: NONUNIT, size: fixed(1)},
                 {1: fixed(2), 3: fixed(n - 1), 5: UNIT, 6: NONUNIT}]
        for constraints in menus:
            for target in (identity(mod), neg_identity(mod), s_mat(mod), t_mat(mod)):
                spec = SetSpec(size, target, constraints)
                reference = count(spec, "naive")
                for split in range(1, size):
                    assert count(spec, "mitm", split=split) == reference, (spec, split)


def test_the_join_matches_the_naive_walk_at_every_split():
    # Every split of every spec here, against the naive walk: letter 1 free,
    # fixed, a unit or a non-unit, a constrained junction at split 4, the
    # fold's first split, and named and explicit targets.  Sizes stop where
    # the naive walk passes 2500 candidates.
    folded = 0
    for n in range(2, 9):
        mod = Modulus(n)
        targets = (identity(mod), neg_identity(mod), s_mat(mod), t_mat(mod),
                   Mat2(2, 1, 1, 1, mod), Mat2(3, 2, 1, 1, mod))
        for size in range(2, 9):
            if n ** (size - 2) > 2500:
                break
            menus = [{}, {1: fixed(n - 1)}, {1: UNIT}, {1: NONUNIT}]
            if size >= 3:
                menus.append({3: fixed(2)})
            if size >= 5:
                menus.append({1: UNIT, 5: NONUNIT})
            for constraints in menus:
                for target in targets:
                    spec = SetSpec(size, target, constraints)
                    sizes = spec.position_counts()
                    reference = oracle._count_naive(spec)
                    for split in range(1, size):
                        folded += oracle._join(spec, split, sizes).fold
                        assert count(spec, "mitm", split=split) == reference, (spec, split)
    assert folded > 0


def test_closed_forms_at_the_joins_reach():
    mod = Modulus(64)
    assert count(SetSpec(7, identity(mod))) == int(w_odd_2m(3, 6, 1))
    for q, size in ((31, 7), (29, 8)):
        mod = Modulus(q)
        for sign, target in ((1, identity(mod)), (-1, neg_identity(mod))):
            assert count(SetSpec(size, target)) == int(u_count(size, q, sign)), (q, size, sign)


def test_the_join_lists_no_free_junction_letter():
    # Size 2 with letter 1 fixed: the join walks one prefix letter and
    # looks the target's bottom row up among its top rows, so it is charged
    # 2 candidates.  Listing the free junction letter's 10^9 + 7 values,
    # which it never reads, would take gigabytes.
    spec = SetSpec(2, s_mat(Modulus(1000000007)), {1: fixed(0)})
    got, peak = _traced_peak(lambda: count(spec, "mitm", budget=2))
    assert got == 0
    assert peak < 1 << 20, peak


def test_fixed_letters_over_a_huge_modulus_list_no_ring():
    # Every letter fixed over Z/(10^9 + 7): each last-letter row has one
    # letter, so it is built entry by entry and no row of N values is
    # made, as a pick from a rotation would make.
    spec = SetSpec(4, s_mat(Modulus(1000000007)),
                   {1: fixed(0), 2: fixed(1), 3: fixed(2), 4: fixed(3)})
    got, peak = _traced_peak(lambda: count(spec, "mitm", budget=16))
    assert got == count(spec, "naive")
    assert peak < 1 << 20, peak
