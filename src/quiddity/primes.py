"""Primality proofs and splitting for the large cofactors of a modulus.

``modring.factorize`` divides out every prime below its trial limit 2^18
itself.  It imports this module only for a cofactor from that limit up:
to prove it prime by the exact Miller-Rabin test, or, above the limit's
square, to split it by Pollard's rho.  No DP or oracle walk reaches such
a modulus, so no count that walks compiles this module.
"""

import math

from .modring import _TRIAL_LIMIT

# Miller-Rabin with the first thirteen primes as bases decides primality
# exactly below this bound (Sorenson and Webster, 2015).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_EXACT_BELOW = 3317044064679887385961981
# Pollard's rho splits a composite cofactor left above _TRIAL_LIMIT ** 2.
# Its walks are capped so that a cofactor it cannot split, one whose prime
# factors all lie far beyond 2^32, is refused in well under a second.
_RHO_SEEDS = 3
_RHO_STEPS = 1 << 16


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd n above the largest base and
    below _MILLER_RABIN_EXACT_BELOW."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def proved_prime(n: int) -> bool:
    """Is n, at least _TRIAL_LIMIT, proved prime by the exact Miller-Rabin test?"""
    return n < _MILLER_RABIN_EXACT_BELOW and _is_prime(n)


def large_primes(n: int, part: int) -> list[int]:
    """The primes, with multiplicity, of a part > 1 of n that trial
    division left.

    Such a part has no prime factor below _TRIAL_LIMIT, or is below the
    square of the last divisor tried, so below _TRIAL_LIMIT ** 2 it is
    prime.  A larger part must pass the exact Miller-Rabin test or be
    split by Pollard's rho, else ValueError names n.
    """
    if part < _TRIAL_LIMIT ** 2 or proved_prime(part):
        return [part]
    d = _rho(part) if part < _MILLER_RABIN_EXACT_BELOW else None
    if d is None:
        raise ValueError(f"cannot factor {n}: its cofactor {part} has no prime "
                         f"factor below {_TRIAL_LIMIT} and is not a provable prime")
    return large_primes(n, d) + large_primes(n, part // d)


def _rho(n: int) -> int | None:
    """A proper divisor of the odd composite n by Pollard's rho, or None
    when _RHO_SEEDS walks of _RHO_STEPS Floyd steps each find none."""
    for c in range(1, _RHO_SEEDS + 1):
        x = y = 2
        for _ in range(_RHO_STEPS):
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
            if d != 1:
                break
        if 1 < d < n:
            return d
    return None
