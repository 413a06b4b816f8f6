import math
import random
import time

import pytest

from helpers import ivals, rt
from quiddity import maps, oracle, reference, spec
from quiddity.counter import dp_count
from quiddity.maps import (
    DomainViolation,
    FiberSet,
    ReciprocityReport,
    SpecSet,
    TupleMap,
    battery_cost,
    drop_minus_one_bijection,
    expand_pair,
    expand_quintuple,
    fiber_shift_bijection,
    insert_minus_one,
    insert_one,
    merge_after_unit_bijection,
    merge_fixed_pair_bijection,
    merge_unit_triple_bijection,
    negation_bijection,
    reduce_minus_one,
    reduce_one,
    reduce_pair,
    reduce_quintuple,
    scaling_bijection,
    shipped_maps,
    unit_drop_map,
    unit_insertion_bijection,
    verify_reciprocal,
)
from quiddity.modring import Modulus, NotAUnit, Residue, units_of
from quiddity.oracle import (
    BudgetExceeded, SetSpec, UNIT, _solve_cost, fixed, psi, psi_domain, psi_fiber, solutions)
from quiddity.sl2 import continuant_entries, continuant_product, identity, neg_identity
from quiddity.spec import DEFAULT_BUDGET

MOD8 = Modulus(8)


def test_negate_map_examples():
    t = rt(MOD8, 7, 7, 7)
    negation = negation_bijection(3, MOD8)
    assert continuant_product(t) == identity(MOD8)
    assert ivals(negation.forward(t)) == (1, 1, 1)
    assert negation.backward(rt(MOD8, 1, 1, 1)) == t


def test_scale_map_examples():
    t = rt(MOD8, 0, 0, 0, 0)
    assert scaling_bijection(4, MOD8, 1, Residue(1, MOD8)).forward(t) == t
    assert scaling_bijection(4, MOD8, 1, Residue(3, MOD8)).forward(t) == t
    with pytest.raises(NotAUnit):
        scaling_bijection(4, MOD8, 1, Residue(2, MOD8))


def test_scale_map_orbit_round_trip():
    lam = Residue(3, MOD8)
    scale, unscale = (scaling_bijection(4, MOD8, 1, u) for u in (lam, lam.inverse()))
    members = list(solutions(SetSpec(4, identity(MOD8))))
    assert len(members) == 20
    for t in members:
        assert unscale.forward(scale.forward(t)) == t
        assert scale.backward(scale.forward(t)) == t


def test_reduce_one_example():
    t = rt(MOD8, 5, 1, 2)
    reduced = reduce_one(t, 2)
    assert ivals(reduced) == (4, 1)
    assert continuant_product(reduced) == continuant_product(t)
    assert insert_one(reduced, 2) == t
    with pytest.raises(DomainViolation):
        reduce_one(rt(MOD8, 1, 2, 3), 2)  # letter is not 1
    with pytest.raises(DomainViolation):
        reduce_one(rt(MOD8, 1, 2, 3), 3)  # not interior


def test_reduce_minus_one_example():
    t = rt(MOD8, 5, 7, 2)
    reduced = reduce_minus_one(t, 2)
    assert ivals(reduced) == (6, 3)
    assert continuant_product(reduced) == -continuant_product(t)
    assert insert_minus_one(reduced, 2) == t


def test_reduce_pair_example():
    # second letter 1, third letter 0: merged letter is -1 and the head
    # picks up (1 - 0) * (-1)^-1 = -1
    t = rt(MOD8, 2, 1, 0, 5)
    reduced = reduce_pair(t)
    assert ivals(reduced) == ((2 + 7) % 8, 7, 5)
    assert continuant_product(reduced) == continuant_product(t)
    assert expand_pair(reduced, t[1], t[2]) == t
    with pytest.raises(NotAUnit):
        reduce_pair(rt(MOD8, 2, 1, 1, 5))  # 1*1 - 1 = 0 is not a unit


def test_reduce_quintuple_example():
    a, c = 2, 6
    t = rt(MOD8, a, 1, 1, 1, c)
    reduced = reduce_quintuple(t)
    assert ivals(reduced) == ((a + 7) % 8, 7, (c + 7) % 8)
    assert continuant_product(reduced) == continuant_product(t)
    assert expand_quintuple(reduced, t[1], t[2], t[3]) == t
    with pytest.raises(NotAUnit):
        reduce_quintuple(rt(MOD8, 1, 1, 2, 1, 1))  # psi(1, 2, 1) = 0 is not a unit
    # v = 2 is no unit, but the merged letter 1*2*0 - 1 - 0 = 7 is: the merge
    # keeps the product and expands back, while psi itself refuses v = 2
    t = rt(MOD8, 2, 1, 2, 0, 5)
    reduced = reduce_quintuple(t)
    assert ivals(reduced) == (0, 7, 5)
    assert continuant_product(reduced) == continuant_product(t)
    assert expand_quintuple(reduced, t[1], t[2], t[3]) == t
    with pytest.raises(NotAUnit):
        psi(t[1], t[2], t[3])


@pytest.mark.parametrize("n_mod", [4, 8, 9, 12, 25])
def test_rewrites_conjugate_the_product_on_random_tuples(n_mod):
    # 2500 random tuples per modulus: removing 1 keeps the product,
    # removing -1 negates it, and contracting a block of j = 2 or 3 letters
    # keeps it and expands back; the contraction refuses exactly when the
    # merged letter, the top-left entry of the block's product, is no unit.
    rng = random.Random(7000 + n_mod)
    mod = Modulus(n_mod)
    refused = {2: 0, 3: 0}
    for _ in range(2500):
        size = rng.randint(5, 8)
        values = [rng.randrange(n_mod) for _ in range(size)]

        i = rng.randint(2, size - 1)
        t = rt(mod, *(values[:i - 1] + [1] + values[i:]))
        assert continuant_product(reduce_one(t, i)) == continuant_product(t)

        t = rt(mod, *(values[:i - 1] + [-1] + values[i:]))
        assert continuant_product(reduce_minus_one(t, i)) == -continuant_product(t)

        t = rt(mod, *values)
        x, y, z = values[1:4]
        for j, alpha in ((2, x * y - 1), (3, x * y * z - x - z)):
            block = values[1:j + 1]
            if math.gcd(alpha, n_mod) != 1:
                with pytest.raises(NotAUnit):
                    maps._contract(t, j)
                refused[j] += 1
                continue
            merged = maps._contract(t, j)
            assert len(merged) == size - j + 1 and merged[1].value == alpha % n_mod
            assert continuant_product(merged) == continuant_product(t)
            assert maps._expand(merged, block) == t
    # both outcomes are exercised at every modulus
    assert all(0 < count < 2500 for count in refused.values()), refused


def test_unit_insert_map_with_unit_one():
    t = rt(MOD8, 1, 1, 1)
    insertion = unit_insertion_bijection(4, MOD8, -1, Residue(1, MOD8))
    image = insertion.forward(t)
    assert ivals(image) == (2, 1, 2, 1)
    assert insertion.backward is unit_drop_map
    assert unit_drop_map(image) == t


def test_unit_insert_round_trip_on_all_units():
    members = list(solutions(SetSpec(5, identity(MOD8))))
    for u in units_of(MOD8):
        insert = unit_insertion_bijection(6, MOD8, 1, u).forward
        for t in members:
            image = insert(t)
            assert image[1] == u
            assert continuant_product(image) == identity(MOD8)
            assert unit_drop_map(image) == t


def test_fiber_shift_examples():
    mod4 = Modulus(4)
    one = Residue(1, mod4)
    three = Residue(3, mod4)
    fiber_one = FiberSet(mod4, one).members()
    assert len(fiber_one) == 8
    stay, shift = fiber_shift_bijection(mod4, one), fiber_shift_bijection(mod4, three)
    for t in fiber_one:
        assert stay.forward(t) == t
        shifted = shift.forward(t)
        assert psi(*shifted) == three
        assert shift.backward(shifted) == t


def test_fiber_sizes_mod8():
    assert [len(FiberSet(MOD8, x).members()) for x in units_of(MOD8)] == [32, 32, 32, 32]


def test_a_fiber_is_charged_its_psi_pass_before_it_runs():
    # Z/4096Z: the psi pass would walk 2048**2 * 4096 = 2**34 triples, so
    # a small budget refuses at once.  Over Z/8Z it walks 4 * 4 * 8.
    mod = Modulus(4096)
    started = time.perf_counter()
    with pytest.raises(BudgetExceeded,
                       match="^enumeration needs 17179869184 candidates, budget is 1000$"):
        FiberSet(mod, Residue(1, mod)).members(budget=1000)
    assert time.perf_counter() - started < 1
    one = Residue(1, MOD8)
    with pytest.raises(BudgetExceeded, match="^enumeration needs 128 candidates"):
        FiberSet(MOD8, one).members(budget=127)
    assert len(FiberSet(MOD8, one).members(budget=128)) == 32


def test_negation_bijection_counts():
    report = verify_reciprocal(negation_bijection(5, MOD8))
    assert report.ok
    assert report.domain_size == report.codomain_size == 80


def test_harness_catches_a_corrupted_map():
    good = negation_bijection(5, MOD8)
    bad = TupleMap("corrupted-negation", good.domain, good.codomain,
                   lambda t: (t[0] + 1,) + tuple(-a for a in t[1:]),
                   good.backward)
    report = verify_reciprocal(bad)
    assert not report.ok
    assert report.counterexample is not None
    assert "codomain" in report.failure


def test_merge_after_unit_cardinality_transfer():
    # Size n with a pinned unit second entry and non-unit third entry
    # matches the unit-second-entry count one size down: here 48 at n=6.
    target = identity(MOD8)
    for u in units_of(MOD8):
        report = verify_reciprocal(merge_after_unit_bijection(6, MOD8, target, u))
        assert report.ok
        assert report.domain_size == report.codomain_size == 48
    assert dp_count(SetSpec(5, target, {2: UNIT})) == 48


def test_merge_unit_triple_cardinality_transfer():
    one = Residue(1, MOD8)
    zero = Residue(0, MOD8)
    tmap = merge_unit_triple_bijection(6, MOD8, identity(MOD8), one, one, zero)
    report = verify_reciprocal(tmap)
    assert report.ok
    x = psi(one, one, zero)
    lam = dp_count(SetSpec(4, identity(MOD8), {2: fixed(int(x))}))
    assert report.domain_size == report.codomain_size == lam


def test_unit_insertion_cardinality_transfer():
    # The even-size unit-second-entry count is the unit-group order times
    # the odd-size total: 320 = 4 * 80 over Z/8Z.
    total_odd = dp_count(SetSpec(5, identity(MOD8)))
    assert dp_count(SetSpec(6, identity(MOD8), {2: UNIT})) == 4 * total_odd == 320
    for u in units_of(MOD8):
        report = verify_reciprocal(unit_insertion_bijection(6, MOD8, 1, u))
        assert report.ok
        assert report.domain_size == total_odd


def test_drop_minus_one_count_transfer():
    for target, flipped in ((identity(MOD8), neg_identity(MOD8)),
                            (neg_identity(MOD8), identity(MOD8))):
        report = verify_reciprocal(drop_minus_one_bijection(5, MOD8, target))
        assert report.ok
        assert report.domain_size == dp_count(SetSpec(4, flipped))


def test_product_of_nonunits_takes_two_values_mod8():
    # x*y - 1 over non-unit pairs mod 8 hits -1 twelve times and 3 four
    # times; that multiplicity pattern drives the even-size telescoping.
    hits = {}
    for x in (0, 2, 4, 6):
        for y in (0, 2, 4, 6):
            hits[(x * y - 1) % 8] = hits.get((x * y - 1) % 8, 0) + 1
    assert hits == {7: 12, 3: 4}


@pytest.mark.parametrize("size", [6, 8])
def test_even_size_partition_by_second_and_third_entry(size):
    # Every even-size solution has either a unit second entry, or a
    # non-unit second entry whose merged letter lands on a pinned unit;
    # the three DP blocks add up to the full count.
    for name in ("id", "neg-id"):
        mod = MOD8
        from quiddity.sl2 import target_by_name
        target = target_by_name(name, mod)
        full = dp_count(SetSpec(size, target))
        unit_second = dp_count(SetSpec(size, target, {2: UNIT}))
        smaller_unit_second = dp_count(SetSpec(size - 1, target, {2: UNIT}))
        lam7 = dp_count(SetSpec(size - 1, target, {2: fixed(7)}))
        lam3 = dp_count(SetSpec(size - 1, target, {2: fixed(3)}))
        assert full == unit_second + 4 * smaller_unit_second + 12 * lam7 + 4 * lam3


def test_merge_fixed_pair_requires_a_unit_merge():
    with pytest.raises(NotAUnit):
        merge_fixed_pair_bijection(6, MOD8, identity(MOD8),
                                   Residue(1, MOD8), Residue(1, MOD8))


def test_scaling_bijection_reports():
    for lam in units_of(MOD8):
        report = verify_reciprocal(scaling_bijection(4, MOD8, -1, lam))
        assert report.ok
        assert report.domain_size == 8


@pytest.mark.parametrize("n_mod,depth", [(8, 7), (4, 9)])
def test_full_grid_battery(n_mod, depth):
    # Wider than the CLI default depths; every shipped pair must still be
    # reciprocal on the larger solution sets.
    for tmap in shipped_maps(Modulus(n_mod), depth):
        report = verify_reciprocal(tmap)
        assert report.ok, report.describe()


def test_domain_violation_messages():
    one, three = Residue(1, MOD8), Residue(3, MOD8)
    cases = [
        (lambda: reduce_one(rt(MOD8, 1, 3, 1), 2), "letter at position 2 is 3, not 1"),
        (lambda: reduce_one(rt(MOD8, 1, 1, 1), 3), "position 3 is not interior for size 3"),
        (lambda: insert_one(rt(MOD8, 1, 1), 3), "position 3 is not interior for size 3"),
        (lambda: reduce_minus_one(rt(MOD8, 1, 3, 1), 2), "letter at position 2 is 3, not -1"),
        (lambda: insert_minus_one(rt(MOD8, 1, 1), 1), "position 1 is not interior for size 3"),
        (lambda: reduce_pair(rt(MOD8, 1, 1, 1)), "size 3 < 4"),
        (lambda: expand_pair(rt(MOD8, 1, 1, 1), three, three), "second entry 1 != 0"),
        (lambda: expand_pair(rt(MOD8, 1, 1), three, three), "size 2 < 3"),
        (lambda: reduce_quintuple(rt(MOD8, 1, 1, 1, 1)), "size 4 < 5"),
        (lambda: expand_quintuple(rt(MOD8, 1, 1, 1), one, one, one), "second entry 1 != 7"),
        (lambda: unit_drop_map(rt(MOD8, 1, 1, 1)), "size 3 is odd"),
    ]
    for call, message in cases:
        with pytest.raises(DomainViolation) as err:
            call()
        assert str(err.value) == message


class ListSet:
    """A hand-made set: members() lists ``members``; contains() accepts
    them and anything in ``also_accepts``."""

    def __init__(self, members, also_accepts=()):
        self._members = tuple(members)
        self._accepts = set(self._members) | set(also_accepts)

    def members(self, budget=None):
        return self._members

    def contains(self, t):
        return t in self._accepts


def table_map(pairs):
    table = dict(pairs)

    def apply(t):
        if t not in table:
            raise DomainViolation(f"{t} has no image")
        return table[t]

    return apply


A, B, X, Y = (0,), (1,), (10,), (11,)


@pytest.mark.parametrize("domain,codomain,forward,backward,failure,counterexample", [
    ([A], [X], {}, {X: A}, "forward raised (0,) has no image", A),
    ([A], [X], {A: Y}, {Y: A}, "forward image left the codomain", (A, Y)),
    ([A], [X], {A: X}, {}, "backward raised (10,) has no image", X),
    ([A, B], [X, Y], {A: X, B: Y}, {X: B, Y: A}, "backward(forward(t)) != t", (A, X, B)),
    # injective but not onto: pass 2 must call backward on the non-image Y
    ([A], [X, Y], {A: X}, {X: A}, "backward raised (11,) has no image", Y),
    ([A], [X, Y], {A: X}, {X: A, Y: B}, "backward image left the domain", (Y, B)),
    ([A], [X, Y], {A: X}, {X: A, Y: A}, "forward(backward(s)) != s", (Y, A)),
    # B is no domain member but contains() accepts it, and forward refuses it
    (ListSet([A], also_accepts=[B]), [X, Y], {A: X}, {X: A, Y: B},
     "forward raised (1,) has no image", B),
    # codomain.contains accepts Y, but members() leaves it out
    ([A, B], ListSet([X], also_accepts=[Y]), {A: X, B: Y}, {X: A, Y: B},
     "set sizes differ", None),
], ids=["forward-raised", "left-codomain", "backward-raised", "not-a-left-inverse",
        "backward-raised-on-non-image", "left-domain", "not-a-right-inverse",
        "forward-raised-on-a-preimage", "sizes-differ"])
def test_harness_reports_every_failure(domain, codomain, forward, backward, failure,
                                       counterexample):
    domain = domain if isinstance(domain, ListSet) else ListSet(domain)
    codomain = codomain if isinstance(codomain, ListSet) else ListSet(codomain)
    tmap = TupleMap("broken", domain, codomain, table_map(forward), table_map(backward))
    report = verify_reciprocal(tmap)
    assert not report.ok
    assert (report.failure, report.counterexample) == (failure, counterexample)
    assert (report.domain_size, report.codomain_size) == (
        len(domain.members()), len(codomain.members()))


def test_an_image_of_plain_integers_is_reported():
    good = negation_bijection(3, MOD8)
    bad = TupleMap("integer-negation", good.domain, good.codomain,
                   lambda t: tuple(int(a) for a in good.forward(t)), good.backward)
    report = verify_reciprocal(bad)
    assert (report.ok, report.failure) == (False, "forward image left the codomain")
    assert report.counterexample == (rt(MOD8, 7, 7, 7), (1, 1, 1))


def test_harness_checks_that_images_come_back_into_the_domain():
    # The domain lists A but its contains() rejects it.  The first pass
    # reports A before mapping it, which is why the second pass can skip
    # the image X: its preimage's membership was already checked.
    domain = ListSet([A])
    domain._accepts = set()
    tmap = TupleMap("broken", domain, ListSet([X]), table_map({A: X}), table_map({X: A}))
    report = verify_reciprocal(tmap)
    assert (report.ok, report.failure, report.counterexample) == (
        False, "listed domain member is not in the domain", A)


def test_each_member_is_mapped_once_each_way():
    calls = []

    def logged(name, pairs):
        apply = table_map(pairs)

        def call(t):
            calls.append((name, t))
            return apply(t)

        return call

    # X and Y are images, so the second pass maps neither of them again.
    tmap = TupleMap("swap", ListSet([A, B]), ListSet([Y, X]),
                    logged("forward", {A: X, B: Y}), logged("backward", {X: A, Y: B}))
    assert verify_reciprocal(tmap) == ReciprocityReport("swap", True, 2, 2)
    assert calls == [("forward", A), ("backward", X), ("forward", B), ("backward", Y)]
    # Y is no image: it is mapped back, and its preimage forward again.
    calls.clear()
    tmap = TupleMap("not-onto", ListSet([A]), ListSet([X, Y]),
                    logged("forward", {A: X}), logged("backward", {X: A, Y: A}))
    assert verify_reciprocal(tmap).failure == "forward(backward(s)) != s"
    assert calls == [("forward", A), ("backward", X), ("backward", Y), ("forward", A)]


def test_a_wrongly_enumerated_member_is_reported():
    # The codomain lists a tuple outside its spec: the index leaves it out,
    # so the second pass finds its preimage outside the domain.
    spec = SetSpec(3, identity(MOD8))
    domain, codomain = SpecSet(spec), SpecSet(spec)
    stray = rt(MOD8, 0, 0, 0)
    codomain._members = codomain.members() + (stray,)
    tmap = TupleMap("identity", domain, codomain, lambda t: t, lambda t: t)
    report = verify_reciprocal(tmap)
    assert (report.ok, report.failure, report.counterexample) == (
        False, "backward image left the domain", (stray, stray))
    assert not codomain.contains(stray)


def test_a_wrongly_enumerated_domain_member_is_reported():
    # The domain lists a tuple outside its spec: the index leaves it out,
    # so the first pass names it before mapping it forward.
    spec = SetSpec(3, identity(MOD8))
    domain, codomain = SpecSet(spec), SpecSet(spec)
    stray = rt(MOD8, 0, 0, 0)
    domain._members = domain.members() + (stray,)
    tmap = TupleMap("identity", domain, codomain, lambda t: t, lambda t: t)
    report = verify_reciprocal(tmap)
    assert (report.ok, report.failure, report.counterexample) == (
        False, "listed domain member is not in the domain", stray)


def test_membership_needs_the_enumeration_too():
    # A tuple the predicate accepts but the enumeration missed is refused.
    members = SpecSet(SetSpec(3, identity(MOD8)))
    first, *rest = members.members()
    members._members = tuple(rest)
    assert members.spec.matches(first)
    assert not members.contains(first)
    assert all(members.contains(t) for t in rest)


def test_fibers_match_psi_fiber_in_order():
    for n in (4, 8, 16):
        mod = Modulus(n)
        for x in units_of(mod):
            assert FiberSet(mod, x).members() == tuple(psi_fiber(mod, x))


def test_one_psi_pass_per_modulus():
    maps._psi_buckets.cache_clear()
    for n in (4, 8, 16):
        mod = Modulus(n)
        before = maps._psi_buckets.cache_info().misses
        for x in units_of(mod):
            FiberSet(mod, x).members()
        for tmap in shipped_maps(mod, 3):
            tmap.domain.members()
        assert maps._psi_buckets.cache_info().misses == before + 1


def test_the_psi_pass_reads_the_oracles_one_enumeration():
    # psi's domain is enumerated once, by oracle.psi_triples; psi_domain
    # lists it and the harness streams it, in the same order.
    assert maps.psi_triples is oracle.psi_triples
    for n in (4, 9, 12):
        mod = Modulus(n)
        assert psi_domain(mod) == list(maps.psi_triples(mod))
        assert maps._psi_values(mod) == tuple(psi(*t).value for t in psi_domain(mod))


def test_a_battery_makes_one_psi_pass(monkeypatch):
    # N = 16 has phi(N)^2 N = 1024 psi triples: the unit-triple merges and
    # the fibers read one pass over them, and the fibers' index checks make
    # the other 1024 calls.  The merges themselves call psi for nothing.
    calls = []

    def counted(u, v, w):
        calls.append((u, v, w))
        return psi(u, v, w)

    monkeypatch.setattr(maps, "psi", counted)
    maps._psi_values.cache_clear()
    maps._psi_buckets.cache_clear()
    checks = reference._suite_bijections([16], 5, None)
    assert checks and all(check.ok for check in checks)
    assert len(calls) == 2048


def spec_sets(battery):
    """The distinct SpecSet objects of a battery, by identity."""
    sets = {}
    for tmap in battery:
        for s in (tmap.domain, tmap.codomain):
            if isinstance(s, SpecSet):
                sets[id(s)] = s
    return list(sets.values())


@pytest.mark.parametrize("n_mod,depth", [(4, 8), (8, 6), (16, 5)])
def test_a_battery_walks_each_size_and_target_once(monkeypatch, n_mod, depth):
    walked = []

    def counted(spec, budget=None):
        walked.append(spec)
        return solutions(spec, budget)

    monkeypatch.setattr(maps, "solutions", counted)
    battery = shipped_maps(Modulus(n_mod), depth)
    sets = spec_sets(battery)
    # maps whose specs are equal hold the same SpecSet
    assert len({s.spec for s in sets}) == len(sets)
    for tmap in battery:
        assert verify_reciprocal(tmap).ok
    # a constrained set reads its members from the walk of its size and target
    assert not any(spec.constraints for spec in walked)
    walks = sorted((spec.size, spec.target.key()) for spec in walked)
    assert walks == sorted({(s.spec.size, s.spec.target.key()) for s in sets})


@pytest.mark.parametrize("n_mod,depth", [(4, 8), (8, 6), (16, 5)])
def test_a_battery_set_lists_what_solutions_lists(n_mod, depth):
    for s in spec_sets(shipped_maps(Modulus(n_mod), depth)):
        assert s.members() == tuple(solutions(s.spec)), s.spec


@pytest.mark.parametrize("n_mod,depth,walks", [(4, 8, 3654), (8, 6, 1630), (16, 5, 706)])
def test_a_battery_walks_each_members_product_once(monkeypatch, n_mod, depth, walks):
    # Only the index of each unconstrained (size, target) set walks a
    # product: sliced sets check their letters, and the harness looks
    # members up in the indexes.
    calls = []

    def counted(values, n):
        calls.append(n)
        return continuant_entries(values, n)

    monkeypatch.setattr(spec, "continuant_entries", counted)
    battery = shipped_maps(Modulus(n_mod), depth)
    walked = [s for s in spec_sets(battery) if not s.spec.constraints]
    for tmap in battery:
        assert verify_reciprocal(tmap).ok
    assert len(calls) == sum(len(s.members()) for s in walked) == walks


def _standalone(kind):
    """The maps of one kind in shipped_maps(MOD8, 6), in battery order, from
    their public builders."""
    units, signs, targets = units_of(MOD8), (1, -1), (identity(MOD8), neg_identity(MOD8))
    return {
        "negation": [negation_bijection(n, MOD8) for n in (3, 5)],
        "scaling": [scaling_bijection(n, MOD8, sign, lam)
                    for n in (4, 6) for sign in signs for lam in units],
        "merge-unit-triple": [merge_unit_triple_bijection(n, MOD8, target, u, v, Residue(w, MOD8))
                              for n in (5, 6) for target in targets
                              for u in units for v in units for w in range(8)],
        "unit-insertion": [unit_insertion_bijection(n, MOD8, sign, u)
                           for n in (4, 6) for sign in signs for u in units],
        "fiber-shift": [fiber_shift_bijection(MOD8, x) for x in units],
    }[kind]


def _described(s):
    return s.spec if isinstance(s, SpecSet) else (s.modulus, s.x)


def test_the_battery_builds_each_unit_triple_merge_as_its_builder_does():
    # The battery makes the unit-triple merges without shared(), and
    # rebuilds the builders' negation, scaling, unit-insertion and
    # fiber-shift maps onto its shared sets: each must still equal the
    # standalone builder's map, and verify the same.
    battery = shipped_maps(MOD8, 6)
    for kind in ("negation", "scaling", "merge-unit-triple", "unit-insertion", "fiber-shift"):
        built = [t for t in battery if t.name.startswith(kind + "(")]
        alone = _standalone(kind)
        assert [t.name for t in built] == [t.name for t in alone]
        for got, want in zip(built, alone):
            assert ([_described(got.domain), _described(got.codomain)]
                    == [_described(want.domain), _described(want.codomain)])
            assert verify_reciprocal(got) == verify_reciprocal(want), got.name


def test_the_battery_shares_one_fiber_over_1():
    shifts = [t for t in shipped_maps(MOD8, 3) if t.name.startswith("fiber-shift")]
    assert len(shifts) == 4 and len({id(t.domain) for t in shifts}) == 1


def test_the_battery_is_for_2_powers_alone():
    # At odd p a non-unit a3 makes u*a3 - 1 = -1 (mod p), so the merge after
    # a unit misses every codomain member whose second letter is not -1 mod p.
    mod = Modulus(27)
    with pytest.raises(ValueError, match="2-power"):
        shipped_maps(mod, 5)
    report = verify_reciprocal(
        merge_after_unit_bijection(5, mod, identity(mod), Residue(1, mod)))
    assert (report.ok, report.failure) == (False, "backward image left the domain")
    assert (report.domain_size, report.codomain_size) == (9, 18)


def _letters_charge(s: SpecSet) -> int:
    """size x N^(size-2) for an unconstrained set, whose walk has N^(size-2)
    leaves and lists at most one tuple per leaf; 0 for a sliced set."""
    size = s.spec.size
    return 0 if s.spec.constraints else size * s.spec.modulus.n ** (size - 2)


@pytest.mark.parametrize("n_mod,depth", [(4, 8), (8, 6), (16, 5), (16, 6)])
def test_the_battery_charge_is_a_lower_bound_of_its_walks(n_mod, depth):
    mod = Modulus(n_mod)
    walked = len(psi_domain(mod)) + sum(
        _solve_cost(s.spec) + _letters_charge(s) for s in spec_sets(shipped_maps(mod, depth)))
    assert battery_cost(mod, depth) <= walked


@pytest.mark.parametrize("n_mod,depth", [(4, 8), (8, 6), (16, 5)])
def test_the_letters_a_battery_lists_fit_its_charge(n_mod, depth):
    for s in spec_sets(shipped_maps(Modulus(n_mod), depth)):
        if not s.spec.constraints:
            assert sum(map(len, s.members())) <= _letters_charge(s), s.spec


def test_the_battery_refuses_n_2_naming_its_domain():
    # 2 is a 2-power, but the battery needs N = 2^m with m >= 2
    for build in (lambda mod: shipped_maps(mod, 5), lambda mod: battery_cost(mod, 5)):
        with pytest.raises(ValueError, match="2-power") as err:
            build(Modulus(2))
        assert str(err.value) == ("shipped maps are defined over 2-power moduli "
                                  "N = 2^m with m >= 2, got N = 2")


def test_the_battery_charge_in_closed_form():
    assert battery_cost(Modulus(4), 8) == 96024
    assert battery_cost(Modulus(8), 6) == 80480
    assert battery_cost(Modulus(16), 5) == 157696
    assert battery_cost(Modulus(64), 6) == 297642752
    assert battery_cost(Modulus(128), 5) == 431656960
    # the deepest batteries the default budget admits
    for n, depth in ((4, 12), (8, 9), (32, 6)):
        assert battery_cost(Modulus(n), depth) <= DEFAULT_BUDGET < battery_cost(Modulus(n), depth + 1)
    # the psi pass; each unconstrained walk at _solve_cost plus its letters;
    # each unit-triple merge's domain at _solve_cost
    for n in (4, 8, 16, 32):
        mod = Modulus(n)
        triples = len(psi_domain(mod))
        for depth in range(2, 15):
            charged = triples + sum(
                _solve_cost(SetSpec(size, target)) + size * n ** (size - 2)
                + (triples * _solve_cost(SetSpec(size, target, {2: fixed(1), 3: fixed(1),
                                                                 4: fixed(0)}))
                   if size in (5, 6) else 0)
                for size in range(3, depth + 1) for target in (identity(mod), neg_identity(mod)))
            assert battery_cost(mod, depth) == charged, (n, depth)
    with pytest.raises(ValueError, match="2-power"):
        battery_cost(Modulus(12), 5)


def one_map_of_each_builder() -> tuple:
    one, three, zero = Residue(1, MOD8), Residue(3, MOD8), Residue(0, MOD8)
    two, target = Residue(2, MOD8), neg_identity(MOD8)
    return (negation_bijection(5, MOD8), scaling_bijection(6, MOD8, 1, three),
            drop_minus_one_bijection(5, MOD8, target),
            merge_after_unit_bijection(5, MOD8, target, three),
            merge_fixed_pair_bijection(6, MOD8, target, zero, two),
            merge_unit_triple_bijection(6, MOD8, target, one, three, two),
            unit_insertion_bijection(6, MOD8, -1, three),
            fiber_shift_bijection(MOD8, three))


def test_each_builder_verifies_alone():
    for tmap in one_map_of_each_builder():
        report = verify_reciprocal(tmap)
        assert report.ok, report.describe()
        assert report.domain_size > 0


def test_every_map_kind_has_its_listed_domain_members_checked():
    # Each builder's domain lists a tuple of zeros that is no member of it
    # (E(0)^5 = S, and every other domain pins a letter zeros miss, or
    # needs units): the harness names it, whatever the map would make of it.
    for tmap in one_map_of_each_builder():
        listed = tmap.domain.members()
        stray = rt(MOD8, *[0] * len(listed[0]))
        assert not tmap.domain.contains(stray), tmap.name
        tmap.domain._members = listed + (stray,)
        report = verify_reciprocal(tmap)
        assert (report.ok, report.failure, report.counterexample) == (
            False, "listed domain member is not in the domain", stray), tmap.name
