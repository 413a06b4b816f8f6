"""Canonical arithmetic in Z/NZ: residues, unit detection, inversion.

Everything downstream (matrices, enumeration, bijections) works over these
values, so residues are kept in a single canonical form: the least
nonnegative representative.

Residues are interned: ``Modulus(n)`` returns the one live modulus for n,
and it holds one Residue per value, made on first use, which both the
constructor and arithmetic hand back.  Each (value, N) is then a single
object, so equality and hashing are by identity and a tuple of residues
hashes and compares in C.  Copies and pickles return the same objects.

N is factored in this module alone: factorize caches its prime powers,
which the CRT split, the totient, |SL2(Z/NZ)| and the closed forms read,
so one request factors each modulus once.
"""

from __future__ import annotations

import functools
import math
import weakref


class NotAUnit(ArithmeticError):
    """Raised when a non-invertible residue is inverted or required."""


class Modulus:
    """A ring size N >= 2.

    ``two_adic`` is the exponent m when N == 2**m with m >= 2, else None.
    The 2-power rings are the main stage; general N is needed for CRT work.
    """

    __slots__ = ("n", "two_adic", "_pool", "__weakref__")
    _live = weakref.WeakValueDictionary()  # n -> the one live Modulus(n)

    def __new__(cls, n: int):
        live = cls._live.get(n)
        if live is not None:
            return live
        if n < 2:
            raise ValueError(f"modulus must be >= 2, got {n}")
        self = object.__new__(cls)
        self.n = n
        m = n.bit_length() - 1
        self.two_adic = m if (n == 1 << m and m >= 2) else None
        self._pool: dict[int, Residue] = {}  # canonical value -> its residue
        cls._live[n] = self
        return self

    def residue(self, value: int) -> "Residue":
        return Residue(value, self)

    def residues(self, values) -> tuple:
        """The residues of the ints ``values`` as a tuple, read straight
        from the pool once each is made."""
        pool, n = self._pool, self.n
        try:
            # from a list, so the tuple is made at its size and reuses the
            # short tuples freed before; tuple(map(...)) would not
            return tuple([pool[v % n] for v in values])
        except KeyError:
            return tuple([Residue(v, self) for v in values])

    def __reduce__(self):
        return Modulus, (self.n,)

    def __repr__(self):
        return f"Modulus({self.n})"


class Residue:
    """An element of Z/NZ stored as its least nonnegative representative.

    ``Residue(value, modulus)`` returns the modulus's pooled instance.
    """

    __slots__ = ("value", "modulus")

    def __new__(cls, value, modulus: Modulus):
        value = int(value) % modulus.n
        pooled = modulus._pool.get(value)
        if pooled is None:
            pooled = modulus._pool[value] = object.__new__(cls)
            pooled.value = value
            pooled.modulus = modulus
        return pooled

    @property
    def is_unit(self) -> bool:
        return math.gcd(self.value, self.modulus.n) == 1

    def inverse(self) -> "Residue":
        if not self.is_unit:
            raise NotAUnit(f"{self.value} is not invertible mod {self.modulus.n}")
        return Residue(pow(self.value, -1, self.modulus.n), self.modulus)

    def _other_value(self, other) -> int:
        if isinstance(other, Residue):
            if other.modulus is not self.modulus:
                raise ValueError("mixed moduli in residue arithmetic")
            return other.value
        return int(other)

    def __add__(self, other):
        return Residue(self.value + self._other_value(other), self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        return Residue(self.value - self._other_value(other), self.modulus)

    def __rsub__(self, other):
        return Residue(self._other_value(other) - self.value, self.modulus)

    def __mul__(self, other):
        return Residue(self.value * self._other_value(other), self.modulus)

    __rmul__ = __mul__

    def __neg__(self):
        return Residue(-self.value, self.modulus)

    def __reduce__(self):
        return Residue, (self.value, self.modulus)

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"Residue({self.value}, mod={self.modulus.n})"


# Trial division stops at this divisor, about 60 ms of it.  A modulus
# below its square, which covers every N a DP or oracle walk reaches, is
# factored by the full loop.
_TRIAL_LIMIT = 1 << 18
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


def _proved_prime(n: int) -> bool:
    """Is n, from _TRIAL_LIMIT up to the exact Miller-Rabin bound, prime?
    Below the limit trial division ends within 2^9 steps anyway."""
    return _TRIAL_LIMIT <= n < _MILLER_RABIN_EXACT_BELOW and _is_prime(n)


@functools.lru_cache(maxsize=64)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """(p, k) for each prime power p^k that exactly divides n >= 1, p
    ascending.  Cached, so one request factors each modulus once.

    Trial division runs to _TRIAL_LIMIT, and stops early once the
    cofactor, at least _TRIAL_LIMIT, is proved prime by the exact
    Miller-Rabin test.  A cofactor it leaves has no smaller prime factor,
    so it is prime below the limit's square; above that it is proved
    prime by the exact Miller-Rabin test or split by Pollard's rho, and
    ValueError names n if a part is neither.
    """
    pairs, rest = [], n
    p = 2
    proved = _proved_prime(rest)
    while not proved and p * p <= rest and p < _TRIAL_LIMIT:
        if rest % p == 0:
            k = 0
            while rest % p == 0:
                rest, k = rest // p, k + 1
            pairs.append((p, k))
            proved = _proved_prime(rest)
        p += 1
    large = [rest] if proved else _large_primes(n, rest) if rest > 1 else []
    return tuple(pairs + [(q, large.count(q)) for q in sorted(set(large))])


def _large_primes(n: int, part: int) -> list[int]:
    """The primes, with multiplicity, of a part > 1 of n that trial
    division left.

    Such a part has no prime factor below _TRIAL_LIMIT, or is below the
    square of the last divisor tried, so below _TRIAL_LIMIT ** 2 it is
    prime.  A larger part must pass the exact Miller-Rabin test or be
    split by Pollard's rho, else ValueError names n.
    """
    if part < _TRIAL_LIMIT ** 2 or (part < _MILLER_RABIN_EXACT_BELOW and _is_prime(part)):
        return [part]
    d = _rho(part) if part < _MILLER_RABIN_EXACT_BELOW else None
    if d is None:
        raise ValueError(f"cannot factor {n}: its cofactor {part} has no prime "
                         f"factor below {_TRIAL_LIMIT} and is not a provable prime")
    return _large_primes(n, d) + _large_primes(n, part // d)


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


def totient(n: int) -> int:
    """Euler's phi: the number of units of Z/nZ."""
    return math.prod(p ** (k - 1) * (p - 1) for p, k in factorize(n))


def units_of(modulus: Modulus) -> list[Residue]:
    """All units of Z/NZ in ascending canonical order."""
    n = modulus.n
    return [Residue(v, modulus) for v in range(n) if math.gcd(v, n) == 1]


def nonunits_of(modulus: Modulus) -> list[Residue]:
    """All non-invertible residues in ascending canonical order."""
    n = modulus.n
    return [Residue(v, modulus) for v in range(n) if math.gcd(v, n) != 1]
