"""Canonical arithmetic in Z/NZ: residues, unit detection, inversion.

Everything downstream (matrices, enumeration, bijections) works over these
values, so residues are kept in a single canonical form: the least
nonnegative representative.

Residues are pooled: each Modulus holds one Residue per value, made on
first use, and both the constructor and arithmetic hand back that
instance.  Equality and hashing stay by value, so residues of two equal
Modulus objects are equal; tuples of residues from one pool compare
element by identity, without calling ``__eq__``.
"""

from __future__ import annotations

import math


class NotAUnit(ArithmeticError):
    """Raised when a non-invertible residue is inverted or required."""


class Modulus:
    """A ring size N >= 2.

    ``two_adic`` is the exponent m when N == 2**m with m >= 2, else None.
    The 2-power rings are the main stage; general N is needed for CRT work.
    """

    __slots__ = ("n", "two_adic", "_pool")

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"modulus must be >= 2, got {n}")
        self.n = n
        m = n.bit_length() - 1
        self.two_adic = m if (n == 1 << m and m >= 2) else None
        self._pool: dict[int, Residue] = {}  # canonical value -> its residue

    def residue(self, value: int) -> "Residue":
        return Residue(value, self)

    def residues(self, values) -> tuple:
        """The residues of ``values`` as a tuple; canonical values already
        pooled are read straight from the pool."""
        try:
            return tuple(map(self._pool.__getitem__, values))
        except KeyError:
            return tuple(Residue(v, self) for v in values)

    def __eq__(self, other):
        return isinstance(other, Modulus) and self.n == other.n

    def __hash__(self):
        return hash(("Modulus", self.n))

    def __reduce__(self):
        return Modulus, (self.n,)

    def __repr__(self):
        return f"Modulus({self.n})"


class Residue:
    """An element of Z/NZ stored as its least nonnegative representative.

    ``Residue(value, modulus)`` returns the modulus's pooled instance.
    """

    __slots__ = ("value", "modulus", "_hash")

    def __new__(cls, value, modulus: Modulus):
        value = int(value) % modulus.n
        pooled = modulus._pool.get(value)
        if pooled is None:
            pooled = modulus._pool[value] = object.__new__(cls)
            pooled.value = value
            pooled.modulus = modulus
            pooled._hash = hash((value, modulus.n))
        return pooled

    @property
    def is_unit(self) -> bool:
        return math.gcd(self.value, self.modulus.n) == 1

    def inverse(self) -> "Residue":
        if not self.is_unit:
            raise NotAUnit(f"{self.value} is not invertible mod {self.modulus.n}")
        mod = self.modulus
        value = pow(self.value, -1, mod.n)
        return mod._pool.get(value) or Residue(value, mod)

    # Arithmetic looks its result up in the pool, and Residue() runs only
    # for a value not made yet.  The lookup is written out in each operator
    # because a shared helper would add a Python call to every operation,
    # and the bijection harness makes hundreds of thousands of them.

    def _other_value(self, other) -> int:
        if isinstance(other, Residue):
            if other.modulus is not self.modulus and other.modulus.n != self.modulus.n:
                raise ValueError("mixed moduli in residue arithmetic")
            return other.value
        return int(other)

    def __add__(self, other):
        mod = self.modulus
        value = (self.value + self._other_value(other)) % mod.n
        return mod._pool.get(value) or Residue(value, mod)

    __radd__ = __add__

    def __sub__(self, other):
        mod = self.modulus
        value = (self.value - self._other_value(other)) % mod.n
        return mod._pool.get(value) or Residue(value, mod)

    def __rsub__(self, other):
        mod = self.modulus
        value = (self._other_value(other) - self.value) % mod.n
        return mod._pool.get(value) or Residue(value, mod)

    def __mul__(self, other):
        mod = self.modulus
        value = self.value * self._other_value(other) % mod.n
        return mod._pool.get(value) or Residue(value, mod)

    __rmul__ = __mul__

    def __neg__(self):
        mod = self.modulus
        value = -self.value % mod.n
        return mod._pool.get(value) or Residue(value, mod)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Residue)
            and self.value == other.value
            and self.modulus.n == other.modulus.n
        )

    def __hash__(self):
        return self._hash

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


def prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending.

    Trial division runs to _TRIAL_LIMIT.  A cofactor it leaves has no
    smaller prime factor, so it is prime below the limit's square; above
    that it must pass the exact Miller-Rabin test, or ValueError names n.
    """
    primes, rest = [], n
    p = 2
    while p * p <= rest and p < _TRIAL_LIMIT:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest >= _TRIAL_LIMIT ** 2 and not (
            rest < _MILLER_RABIN_EXACT_BELOW and _is_prime(rest)):
        raise ValueError(f"cannot factor {n}: its cofactor {rest} has no prime "
                         f"factor below {_TRIAL_LIMIT} and is not a provable prime")
    if rest > 1:
        primes.append(rest)
    return primes


def totient(n: int) -> int:
    """Euler's phi: the number of units of Z/nZ."""
    for p in prime_divisors(n):
        n = n // p * (p - 1)
    return n


def units_of(modulus: Modulus) -> list[Residue]:
    """All units of Z/NZ in ascending canonical order."""
    n = modulus.n
    return [Residue(v, modulus) for v in range(n) if math.gcd(v, n) == 1]


def nonunits_of(modulus: Modulus) -> list[Residue]:
    """All non-invertible residues in ascending canonical order."""
    n = modulus.n
    return [Residue(v, modulus) for v in range(n) if math.gcd(v, n) != 1]
