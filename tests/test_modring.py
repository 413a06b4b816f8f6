import copy
import math
import pickle

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import euler_phi
from quiddity import modring, primes
from quiddity.modring import (
    Modulus, NotAUnit, Residue, factorize, nonunits_of, totient, units_of,
)
from quiddity.oracle import psi


@pytest.mark.parametrize("n,expected", [
    (2, None), (3, None), (4, 2), (6, None), (8, 3), (12, None), (16, 4), (1024, 10),
])
def test_two_adic_detection(n, expected):
    assert Modulus(n).two_adic == expected


@pytest.mark.parametrize("bad", [1, 0, -4])
def test_modulus_rejects_small(bad):
    with pytest.raises(ValueError):
        Modulus(bad)


def test_residues_are_canonical():
    mod = Modulus(8)
    for z in range(-20, 20):
        for k in (-3, -1, 0, 1, 5):
            assert Residue(z, mod) == Residue(z + k * 8, mod)
            assert 0 <= Residue(z + k * 8, mod).value < 8


def test_unit_detection():
    mod8, mod4 = Modulus(8), Modulus(4)
    assert Residue(3, mod8).is_unit
    assert not Residue(6, mod8).is_unit
    assert not Residue(0, mod4).is_unit


def test_inverse_examples():
    mod8 = Modulus(8)
    assert Residue(3, mod8).inverse() == Residue(3, mod8)
    assert Residue(1, mod8).inverse() == Residue(1, mod8)
    assert Residue(5, mod8).inverse() == Residue(5, mod8)


def test_inverse_round_trip():
    for n in (4, 8, 9, 12, 16, 25, 1024):
        mod = Modulus(n)
        for r in units_of(mod):
            assert (r * r.inverse()).value == 1
            assert r.inverse().inverse() == r


def test_inverse_of_nonunit_raises():
    with pytest.raises(NotAUnit):
        Residue(6, Modulus(8)).inverse()
    with pytest.raises(NotAUnit):
        Residue(0, Modulus(4)).inverse()


def test_units_of_examples():
    assert [r.value for r in units_of(Modulus(4))] == [1, 3]
    assert [r.value for r in units_of(Modulus(8))] == [1, 3, 5, 7]
    assert [r.value for r in units_of(Modulus(3))] == [1, 2]


def test_unit_count_matches_totient():
    for n in (3, 4, 5, 8, 9, 12, 15, 16, 24, 40):
        mod = Modulus(n)
        assert len(units_of(mod)) == euler_phi(n)
        assert len(units_of(mod)) + len(nonunits_of(mod)) == n


def test_two_power_unit_group_order():
    for m in range(2, 11):
        assert len(units_of(Modulus(1 << m))) == 1 << (m - 1)


def test_arithmetic_matches_int_arithmetic():
    mod = Modulus(8)
    for a in range(8):
        for b in range(8):
            ra, rb = Residue(a, mod), Residue(b, mod)
            assert (ra + rb).value == (a + b) % 8
            assert (ra - rb).value == (a - b) % 8
            assert (ra * rb).value == (a * b) % 8
            assert (-ra).value == (-a) % 8
            assert (ra + b).value == (a + b) % 8
            assert (b - ra).value == (b - a) % 8
            assert (2 * ra).value == (2 * a) % 8


def test_mixed_moduli_rejected():
    with pytest.raises(ValueError):
        Residue(1, Modulus(8)) + Residue(1, Modulus(4))


def test_residues_are_pooled_per_modulus():
    mod = Modulus(8)
    three = Residue(3, mod)
    assert Residue(11, mod) is three
    assert Residue(-5, mod) is three
    assert mod.residue(3) is three


def test_arithmetic_returns_pooled_residues():
    mod = Modulus(8)
    a, b = Residue(3, mod), Residue(6, mod)
    assert a + b is Residue(1, mod)
    assert a - b is Residue(5, mod)
    assert 1 - a is Residue(6, mod)
    assert a * b is Residue(2, mod)
    assert 2 * a is Residue(6, mod)
    assert 1 + a is Residue(4, mod)
    assert -a is Residue(5, mod)
    assert a.inverse() is a
    assert psi(a, a, b) is Residue(3 * 3 * 6 - 3 - 6, mod)


def test_moduli_and_residues_are_interned():
    # each (value, N) is one object, so equality and hashing are identity
    assert Modulus(8) is Modulus(8)
    assert Residue(3, Modulus(8)) is Residue(11, Modulus(8))
    assert Residue(1, Modulus(8)) + Residue(2, Modulus(8)) is Residue(3, Modulus(8))
    assert Residue(3, Modulus(4)) != Residue(3, Modulus(8))
    with pytest.raises(ValueError, match="mixed moduli"):
        Residue(1, Modulus(8)) + Residue(1, Modulus(4))
    r = Residue(5, Modulus(8))
    for other in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert other is r
    assert copy.deepcopy(Modulus(8)) is pickle.loads(pickle.dumps(Modulus(8))) is Modulus(8)


def test_residues_of_different_moduli_differ():
    assert Residue(3, Modulus(4)) != Residue(3, Modulus(8))
    assert Residue(3, Modulus(8)) != 3
    with pytest.raises(ValueError):
        Residue(1, Modulus(8)) * Residue(1, Modulus(4))
    with pytest.raises(ValueError):
        Residue(1, Modulus(8)) - Residue(1, Modulus(4))


def test_copies_and_pickles_are_equal():
    r = Residue(5, Modulus(8))
    for other in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert other == r and hash(other) == hash(r)
        assert other.value == 5 and other.modulus == r.modulus
    assert pickle.loads(pickle.dumps(Modulus(8))) == Modulus(8)


def test_totient_counts_the_units():
    for n in range(2, 200):
        assert totient(n) == euler_phi(n) == len(units_of(Modulus(n)))


def _is_prime_by_division(n):
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_factorize_matches_trial_division():
    for n in range(1, 3000):
        pairs = factorize(n)
        assert [p for p, _ in pairs] == [p for p in range(2, n + 1)
                                         if n % p == 0 and _is_prime_by_division(p)], n
        for p, k in pairs:
            assert n % p ** k == 0 and n % p ** (k + 1), (n, p, k)
        assert math.prod(p ** k for p, k in pairs) == n


def test_miller_rabin_decides_primes_and_strong_pseudoprimes():
    for n in range(43, 20000, 2):
        assert primes._is_prime(n) == _is_prime_by_division(n), n
    # Strong pseudoprimes to the bases 2..23 and 2..37 (Sorenson and Webster).
    assert not primes._is_prime(3825123056546413051)
    assert not primes._is_prime(318665857834031151167461)
    # The first one to all thirteen bases is where the test stops being exact.
    assert primes._is_prime(primes._MILLER_RABIN_EXACT_BELOW)


def test_factorize_beyond_trial_division():
    limit = modring._TRIAL_LIMIT
    assert factorize(10 ** 18 + 3) == ((10 ** 18 + 3, 1),)
    assert factorize(2 ** 40 * 3 ** 5 * (10 ** 18 + 3)) == ((2, 40), (3, 5), (10 ** 18 + 3, 1))
    assert factorize(262139 * 262147) == ((262139, 1), (262147, 1))  # one factor below the limit
    assert 262139 < limit < 262147
    # Both factors beyond trial division: Pollard's rho splits the cofactor.
    assert factorize(262147 * 262151) == ((262147, 1), (262151, 1))
    assert factorize((10 ** 9 + 7) * (10 ** 9 + 9)) == ((10 ** 9 + 7, 1), (10 ** 9 + 9, 1))
    assert factorize(262147 ** 2) == ((262147, 2),)
    assert factorize(2 ** 67 - 1) == ((193707721, 1), (761838257287, 1))


@pytest.mark.parametrize("n", [
    primes._MILLER_RABIN_EXACT_BELOW,  # = 1287836182261 * 2575672364521
    (10 ** 30 + 57) * 3,
    (10 ** 12 + 39) * (10 ** 12 + 61),  # both factors too large for rho's capped walks
])
def test_factorize_refuses_an_unprovable_cofactor(n):
    with pytest.raises(ValueError, match=f"^cannot factor {n}:"):
        factorize(n)


# Primes on both sides of the trial-division limit 2^18, and beyond 2^30.
PRIMES = [2, 3, 5, 101, 65521, 262139, 262147, 262151, 1000003,
          2147483647, 10 ** 9 + 7, 10 ** 18 + 3]


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.sampled_from(PRIMES), st.integers(1, 3), min_size=1, max_size=3))
def test_a_product_of_prime_powers_factors_back_to_itself(powers):
    # Miller-Rabin is exact only below its bound, so the part that trial
    # division leaves must stay under it.
    assume(math.prod(p ** k for p, k in powers.items() if p > modring._TRIAL_LIMIT)
           < primes._MILLER_RABIN_EXACT_BELOW)
    assert factorize(math.prod(p ** k for p, k in powers.items())) == tuple(
        sorted(powers.items()))
