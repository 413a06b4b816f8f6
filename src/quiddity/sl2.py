"""2x2 matrices over Z/NZ, continuant products, and the order of SL2(Z/NZ).

The continuant product multiplies a new letter on the LEFT: the last letter
of a tuple is the leftmost factor.  That convention fixes which tuple
position a per-position constraint refers to, and it has to agree between
the brute-force enumerator and the dynamic program.
"""

from __future__ import annotations

from functools import lru_cache

from .modring import Modulus, Residue, factorize


class Mat2:
    """A 2x2 matrix over Z/NZ with canonical (least nonnegative) entries."""

    __slots__ = ("a", "b", "c", "d", "modulus")

    def __init__(self, a, b, c, d, modulus: Modulus):
        n = modulus.n
        self.a = int(a) % n
        self.b = int(b) % n
        self.c = int(c) % n
        self.d = int(d) % n
        self.modulus = modulus

    def det(self) -> int:
        return (self.a * self.d - self.b * self.c) % self.modulus.n

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def residues(self) -> tuple[Residue, Residue, Residue, Residue]:
        m = self.modulus
        return (Residue(self.a, m), Residue(self.b, m), Residue(self.c, m), Residue(self.d, m))

    def key(self) -> int:
        # Entries packed into one integer: ((a*N + b)*N + c)*N + d.
        n = self.modulus.n
        return ((self.a * n + self.b) * n + self.c) * n + self.d

    @classmethod
    def from_key(cls, key: int, modulus: Modulus) -> "Mat2":
        """The matrix whose key() is ``key``."""
        n = modulus.n
        key, d = divmod(key, n)
        key, c = divmod(key, n)
        a, b = divmod(key, n)
        return cls(a, b, c, d, modulus)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        if other.modulus.n != self.modulus.n:
            raise ValueError("mixed moduli in matrix product")
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            self.modulus,
        )

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d, self.modulus)

    def inverse(self) -> "Mat2":
        if self.det() != 1:
            raise ValueError("inverse is only implemented for determinant-1 matrices")
        return Mat2(self.d, -self.b, -self.c, self.a, self.modulus)

    def __eq__(self, other):
        return (
            isinstance(other, Mat2)
            and self.modulus.n == other.modulus.n
            and self.entries() == other.entries()
        )

    def __hash__(self):
        return hash((self.key(), self.modulus.n))

    def __repr__(self):
        return f"Mat2([[{self.a},{self.b}],[{self.c},{self.d}]], mod={self.modulus.n})"


def identity(modulus: Modulus) -> Mat2:
    return Mat2(1, 0, 0, 1, modulus)


def neg_identity(modulus: Modulus) -> Mat2:
    return Mat2(-1, 0, 0, -1, modulus)


def s_mat(modulus: Modulus) -> Mat2:
    """The order-4 generator [[0,-1],[1,0]]; equal to elementary(0)."""
    return Mat2(0, -1, 1, 0, modulus)


def t_mat(modulus: Modulus) -> Mat2:
    """The shear generator [[1,1],[0,1]]."""
    return Mat2(1, 1, 0, 1, modulus)


TARGET_NAMES = ("id", "neg-id", "s", "neg-s", "t", "neg-t")


def target_by_name(name: str, modulus: Modulus) -> Mat2:
    base = {"id": identity, "s": s_mat, "t": t_mat}
    if name in base:
        return base[name](modulus)
    if name.startswith("neg-") and name[4:] in base:
        return -base[name[4:]](modulus)
    raise ValueError(f"unknown target name {name!r}; expected one of {TARGET_NAMES}")


@lru_cache(maxsize=64)
def _named_keys(n: int) -> dict[int, str]:
    modulus = Modulus(n)
    return {target_by_name(name, modulus).key(): name for name in TARGET_NAMES}


def target_name(mat: Mat2) -> str | None:
    """The name in TARGET_NAMES of ``mat`` (mod 2, where pairs coincide, the
    later one), or None when it has none."""
    return _named_keys(mat.modulus.n).get(mat.key())


def elementary(a, modulus: Modulus | None = None) -> Mat2:
    """The letter matrix [[a, -1], [1, 0]]."""
    if modulus is None:
        if not isinstance(a, Residue):
            raise ValueError("elementary() needs a modulus when given a bare integer")
        modulus = a.modulus
    return Mat2(int(a), -1, 1, 0, modulus)


def continuant_product(values, modulus: Modulus | None = None) -> Mat2:
    """Product of letter matrices with the last letter leftmost.

    ``values`` may hold Residue objects (modulus inferred) or plain ints
    (modulus required).  Splitting a tuple t = u ++ v gives
    product(t) == product(v) @ product(u).
    """
    values = tuple(values)
    if not values:
        raise ValueError("continuant product needs at least one letter")
    if modulus is None:
        first = values[0]
        if not isinstance(first, Residue):
            raise ValueError("continuant_product() needs a modulus for bare integers")
        modulus = first.modulus
    n = modulus.n
    # Left-multiplying by [[a,-1],[1,0]] sends [[p,q],[r,s]] to [[ap-r, aq-s],[p, q]].
    p, q, r, s = int(values[0]) % n, n - 1, 1, 0
    for letter in values[1:]:
        a = int(letter)
        p, q, r, s = (a * p - r) % n, (a * q - s) % n, p, q
    return Mat2(p, q, r, s, modulus)


def group_order(n: int) -> int:
    """|SL2(Z/NZ)| = N^3 * prod over primes p | N of (1 - p^-2), exactly."""
    order = n ** 3
    for p, _ in factorize(n):
        order = order // (p * p) * (p * p - 1)
    return order
