import tracemalloc

import pytest

from helpers import DenseReference, sl2_elements
from quiddity import counter, oracle
from quiddity.counter import (
    CapExceeded,
    dp_count,
    dp_count_all_targets,
    dp_vector,
    dp_vector_sequence,
    walk_cost,
)
from quiddity.formulas import delta_value, u_count, w_even_bounds, w_odd_2m
from quiddity.modring import Modulus
from quiddity.oracle import NONUNIT, SetSpec, UNIT, fixed
from quiddity.sl2 import (
    Mat2,
    TARGET_NAMES,
    elementary,
    group_order,
    identity,
    neg_identity,
    target_by_name,
)

MOD8 = Modulus(8)


def test_reference_counts():
    assert dp_count(SetSpec(5, identity(MOD8))) == 80
    assert dp_count(SetSpec(7, identity(MOD8))) == 5376
    assert dp_count(SetSpec(6, identity(MOD8), {2: UNIT})) == 320


def test_all_targets_reads_one_vector():
    got = dp_count_all_targets(5, MOD8, {2: UNIT})
    assert got["s"] == 32
    assert got["neg-s"] == 32
    assert got["id"] == got["neg-id"] == got["t"] == got["neg-t"] == 48
    assert dp_count_all_targets(8, MOD8, {2: UNIT})["id"] == 21504
    assert dp_count_all_targets(4, MOD8, {2: UNIT})["s"] == 8


def test_single_letter_vector():
    vec = dp_vector(1, MOD8)
    for a in range(8):
        assert vec.at(elementary(a, MOD8)) == 1
    assert vec.total() == 8


def test_two_letter_vector_pins_neg_id():
    assert dp_vector(2, MOD8).at(neg_identity(MOD8)) == 1


def test_no_count_off_the_group():
    # The bottom-row lookup must not answer for a determinant other than 1.
    off = Mat2(0, 0, 1, 7, MOD8)  # bottom row (1, -1) is reached
    assert dp_vector(2, MOD8).at(off) == 0
    assert dp_vector(2, MOD8, {2: UNIT}).at(off) == 0


def test_conservation():
    for n in (3, 4, 8, 12):
        mod = Modulus(n)
        for size in range(1, 8):
            assert dp_vector(size, mod).total() == n ** size


def test_sequence_snapshots_match_single_runs():
    seq = dp_vector_sequence(5, MOD8, {2: UNIT})
    assert len(seq) == 6
    assert seq[0].at(identity(MOD8)) == 1 and seq[0].total() == 1
    elements = sl2_elements(MOD8)
    for size in range(2, 6):
        single = dp_vector(size, MOD8, {2: UNIT})
        assert [seq[size].at(g) for g in elements] == [single.at(g) for g in elements]
        assert seq[size].total() == single.total()


DIFFERENTIAL_CONSTRAINTS = [
    lambda size: None,
    lambda size: {1: UNIT},
    lambda size: {size: NONUNIT},
    lambda size: {1: fixed(2), 2: UNIT},
    lambda size: {size: fixed(1)},
    lambda size: {2: UNIT, 3: NONUNIT, 4: fixed(0)},
    lambda size: {5: UNIT},  # a constrained column step on counts above 1
    lambda size: {1: NONUNIT, 2: fixed(3), 3: UNIT},  # several heads
]


@pytest.mark.parametrize("n", range(3, 13))
def test_walk_matches_dense_group_dp(n):
    # Every snapshot at every group element, against the dense DP over the
    # whole group, with constraints first, last and at consecutive positions.
    mod = Modulus(n)
    dense = DenseReference(mod)
    for constraints_of in DIFFERENTIAL_CONSTRAINTS:
        for size in range(1, 7):
            cons = constraints_of(size)
            if cons and max(cons) > size:
                continue
            walk = dp_vector_sequence(size, mod, cons)
            expected = dense.snapshots(size, cons)
            for vec, counts in zip(walk, expected, strict=True):
                assert [vec.at(g) for g in dense.elements] == counts, (size, cons)
                assert vec.total() == sum(counts)


def test_a_constrained_letter_after_free_ones_keeps_to_columns():
    # Once a free letter has passed, a fixed letter steps on the column
    # counts like any other; a step on group elements would hold
    # |G| = 196,608 counts for the first case.  The column step reads its
    # sources from the counts themselves, so the peaks stay below what a
    # table of |G| references would take: 912,576 of them at N = 97 and
    # 1,572,864 at N = 128.
    for size, n, cons, peak_bound in ((8, 64, {4: fixed(0)}, 10_000_000),
                                      (2, 97, None, 1_000_000),
                                      (10, 128, None, 4_000_000)):
        tracemalloc.start()
        try:
            vec = dp_vector(size, Modulus(n), cons)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vec.total() == n ** (size - 1 if cons else size)
        assert peak < peak_bound, (size, n)


def test_dp_vector_keeps_only_its_last_snapshot():
    # Ten kept column lists of N^2 = 16,384 slots took about 1.3 MB of the
    # 1.38 MB peak that keeping every snapshot reached here.  Without them
    # the step's old and new column lists are what is left.
    mod = Modulus(128)
    dp_vector(2, mod)  # warm the lru caches outside the measurement
    tracemalloc.start()
    try:
        vec = dp_vector(10, mod)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vec.total() == 128 ** 10
    assert peak < 500_000


@pytest.mark.parametrize("cons", [None, {1: UNIT}, {1: fixed(3), 2: NONUNIT, 5: UNIT}])
def test_a_walk_keeps_the_sizes_asked_for_and_its_last(cons):
    # the last case's sizes 1 and 2 are pair-state vectors, before its first free letter
    full = dp_vector_sequence(6, MOD8, cons)
    targets = [target_by_name(name, MOD8) for name in TARGET_NAMES]
    for keep in ((), {0, 2}, {1, 3, 6}, range(7)):
        walk = dp_vector_sequence(6, MOD8, cons, keep=keep)
        assert len(walk) == 7
        for size, (vec, whole) in enumerate(zip(walk, full)):
            if size in keep or size == 6:
                assert [vec.at(t) for t in targets] == [whole.at(t) for t in targets]
                assert vec.total() == whole.total()
            else:
                assert vec is None, (keep, size)


@pytest.mark.parametrize("m", [5, 6, 7, 8])
def test_walk_meets_closed_forms_beyond_dense_reach(m):
    # N = 32 to 256, where the dense group DP's N * |G| letter actions made
    # each call take seconds to hours.  walk_cost's bound refuses the larger
    # ones under the default budget, so each call gets its own bound.
    mod = Modulus(1 << m)
    n = mod.n
    plain = dp_vector_sequence(11, mod, budget=walk_cost(11, mod))
    with_unit = dp_vector_sequence(11, mod, {2: UNIT}, budget=walk_cost(11, mod, {2: UNIT}))
    for k in range(12):
        assert plain[k].total() == n ** k
        assert with_unit[k].total() == (n ** (k - 1) * (n // 2) if k >= 2 else n ** k)
    plus, minus = identity(mod), neg_identity(mod)
    for size in range(5, 12, 2):
        assert plain[size].at(plus) == int(w_odd_2m((size - 1) // 2, m, 1))
        assert plain[size].at(minus) == int(w_odd_2m((size - 1) // 2, m, -1))
    for size in (6, 8, 10):
        for sign, target in ((1, plus), (-1, minus)):
            lower, upper = w_even_bounds(size // 2, m, sign)
            assert int(lower) <= plain[size].at(target) <= int(upper)
    for size in range(3, 12):
        for name in TARGET_NAMES:
            got = with_unit[size].at(target_by_name(name, mod))
            assert got == int(delta_value(size, m, name)), (size, name)


@pytest.mark.parametrize("q", [31, 97])
def test_walk_meets_u_count_over_larger_primes(q):
    mod = Modulus(q)
    seq = dp_vector_sequence(9, mod)
    for size in range(5, 10):
        assert seq[size].at(identity(mod)) == int(u_count(size, q, 1)), size
        assert seq[size].at(neg_identity(mod)) == int(u_count(size, q, -1)), size


def test_constraint_errors_match_the_oracle():
    for cons, message in (({4: UNIT}, "constraint position 4 outside 1..3"),
                          ([(1, UNIT), (1, NONUNIT)], "duplicate constraint for position 1")):
        with pytest.raises(ValueError) as from_dp:
            dp_vector(3, MOD8, cons)
        with pytest.raises(ValueError) as from_spec:
            SetSpec(3, identity(MOD8), cons)
        assert str(from_dp.value) == str(from_spec.value) == message


CONSTRAINT_CASES = [None, {2: UNIT}, {2: NONUNIT}, {2: fixed(1)}, {1: fixed(1)}]


# 18 and 30 give letter counts t(k) with several hit multiplicities.
@pytest.mark.parametrize("n,max_size", [(3, 10), (4, 10), (8, 6), (18, 5), (30, 4)])
def test_dp_matches_oracle(n, max_size):
    mod = Modulus(n)
    for size in range(2, max_size + 1):
        for cons in CONSTRAINT_CASES:
            vec = dp_vector(size, mod, cons)
            for name in ("id", "neg-id", "s"):
                spec = SetSpec(size, target_by_name(name, mod), cons)
                method = "mitm" if size >= 4 else "naive"
                assert vec.at(spec.target) == oracle.count(spec, method)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_two_term_recursion_on_dp_values(m):
    mod = Modulus(1 << m)
    seq = dp_vector_sequence(12, mod, {2: UNIT})
    for name in TARGET_NAMES:
        target = target_by_name(name, mod)
        series = [vec.at(target) for vec in seq]
        for size in range(5, 13):
            expected = 2 ** (m - 1) * series[size - 1] + 2 ** (2 * m - 1) * series[size - 2]
            assert series[size] == expected


def test_negation_symmetry_for_odd_sizes():
    for n in (3, 4, 8, 12):
        mod = Modulus(n)
        for size in (3, 5, 7, 9):
            vec = dp_vector(size, mod)
            assert vec.at(identity(mod)) == vec.at(neg_identity(mod))


def test_fixed_minus_one_transfers_to_smaller_size():
    # Pinning the second entry to -1 mirrors the full count one size down
    # with the negated target.
    for n in (4, 8):
        mod = Modulus(n)
        for size in range(4, 10):
            pinned = dp_vector(size, mod, {2: fixed(-1)})
            plain = dp_vector(size - 1, mod)
            for name in TARGET_NAMES:
                target = target_by_name(name, mod)
                assert pinned.at(target) == plain.at(-target)


def test_budget_bounds_the_predicted_cost():
    mod12 = Modulus(12)
    # |SL2(Z/12Z)| = 1,152: the leading 1 plus three free letters.
    assert walk_cost(3, mod12) == 1152 * 4
    # A unit or non-unit position counts N letters, a fixed one a single letter.
    assert walk_cost(3, mod12, {1: NONUNIT, 2: UNIT, 3: fixed(5)}) == 1152 * (1 + 12 + 12 + 1)
    with pytest.raises(CapExceeded, match="the DP needs 4608 additions, budget is 4607"):
        dp_vector(3, mod12, budget=4607)
    assert dp_vector(3, mod12, budget=4608).total() == 12 ** 3


class Counted(int):
    """A count that tallies every addition it takes part in."""

    additions = 0

    def __add__(self, other):
        Counted.additions += 1
        return Counted(int(self) + int(other))

    __radd__ = __add__

    def __mul__(self, other):
        return Counted(int(self) * int(other))

    __rmul__ = __mul__


def walk_additions(monkeypatch, size, modulus, constraints):
    """The additions one DP walk makes: every move starts from Counted counts."""
    step, pair_step, heads = counter._step, counter._pair_step, counter._heads
    monkeypatch.setattr(counter, "_step", lambda cols, letters, n: step(
        list(map(Counted, cols)), letters, n))
    monkeypatch.setattr(counter, "_pair_step", lambda pairs, letters, n: pair_step(
        {key: Counted(c) for key, c in pairs.items()}, letters, n))
    monkeypatch.setattr(counter, "_heads", lambda pairs: heads(
        {key: Counted(c) for key, c in pairs.items()}))
    Counted.additions = 0
    try:
        dp_vector(size, modulus, constraints, budget=walk_cost(size, modulus, constraints))
    finally:
        monkeypatch.undo()
    return Counted.additions


@pytest.mark.parametrize("n", range(2, 17))
def test_walk_cost_bounds_the_additions_the_dp_makes(monkeypatch, n):
    # Free, unit, non-unit and fixed letters: one alone at the first,
    # second or last position, a leading constrained run, and every letter
    # after a free run (the column steps a fixed letter takes most often).
    modulus = Modulus(n)
    kinds = (UNIT, NONUNIT, fixed(0), fixed(1))
    for size in (1, 2, 3, 5, 9, 17, 40) if n <= 4 else (1, 2, 3, 6):
        grid = [{}]
        for kind in kinds:
            grid += [{pos: kind} for pos in {1, 2, size} if pos <= size]
            grid.append(dict.fromkeys(range(1, min(size, 3) + 1), kind))
            grid += [dict.fromkeys(range(free + 1, size + 1), kind) for free in (1, 3)]
        for constraints in grid:
            additions = walk_additions(monkeypatch, size, modulus, constraints)
            assert additions <= walk_cost(size, modulus, constraints), (size, constraints)


def test_the_charge_per_letter_is_the_group_order_from_three_on():
    # At N = 2 a free column step makes 9 additions, past |G| = 6: the
    # charge there is 2 N^2 + N = 10 a letter.
    assert walk_cost(9, Modulus(2)) == 10 * 10
    for n in range(3, 40):
        assert walk_cost(5, Modulus(n), {2: UNIT}) == group_order(n) * (1 + 5 + n - 1)


def test_budget_admits_the_walk_past_five_million_group_elements():
    # |SL2(Z/191Z)| = 6,967,680 > 5,000,000: the size-8 walk (about 8 s)
    # fits the default budget; the size-3 walk over Z/3000Z does not.
    assert walk_cost(8, Modulus(191)) == 6_967_680 * 9 <= oracle.DEFAULT_BUDGET
    assert walk_cost(3, Modulus(3000)) > oracle.DEFAULT_BUDGET


def test_cap_is_enforced():
    big = Modulus((1 << 16) + 2)
    with pytest.raises(CapExceeded):
        dp_count(SetSpec(3, identity(big)))
