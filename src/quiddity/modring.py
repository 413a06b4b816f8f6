"""Canonical arithmetic in Z/NZ: residues, unit detection, inversion.

Everything downstream (matrices, enumeration, bijections) works over these
values, so residues are kept in a single canonical form: the least
nonnegative representative.

Residues are interned: ``Modulus(n)`` returns the one live modulus for n,
and it holds one Residue per value, made on first use, which both the
constructor and arithmetic hand back.  Each (value, N) is then a single
object, so equality and hashing are by identity and a tuple of residues
hashes and compares in C.  Copies and pickles return the same objects.

N is factored through this module alone: factorize caches its prime
powers, which the CRT split, the totient, |SL2(Z/NZ)| and the closed forms
read, so one request factors each modulus once.  It divides out the primes
below 2^18 itself, and imports ``primes`` only to prove prime or split a
cofactor from there up, so no count that walks compiles that module.
"""

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
# factored by the full loop; a cofactor from the limit up is proved prime
# or split by ``primes``, which is imported only then.
_TRIAL_LIMIT = 1 << 18


def _proved_prime(n: int) -> bool:
    """Is n, from _TRIAL_LIMIT up to the exact Miller-Rabin bound, prime?
    Below the limit trial division ends within 2^9 steps anyway."""
    if n < _TRIAL_LIMIT:
        return False
    from .primes import proved_prime

    return proved_prime(n)


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
    if proved or rest < _TRIAL_LIMIT ** 2:
        large = [rest] if rest > 1 else []
    else:
        from .primes import large_primes

        large = large_primes(n, rest)
    return tuple(pairs + [(q, large.count(q)) for q in sorted(set(large))])


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
