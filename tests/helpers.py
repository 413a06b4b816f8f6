"""Shared test helpers."""

from quiddity.modring import Modulus, Residue
from quiddity.oracle import ANY, allowed_values
from quiddity.sl2 import Mat2, elementary, identity


def rt(modulus: Modulus, *values) -> tuple:
    """Tuple of residues from plain ints."""
    return tuple(Residue(v, modulus) for v in values)


def ivals(t) -> tuple:
    """Canonical int view of a residue tuple."""
    return tuple(int(a) for a in t)


def euler_phi(n: int) -> int:
    """Independent totient via trial-division factoring."""
    result = n
    p = 2
    remaining = n
    while p * p <= remaining:
        if remaining % p == 0:
            result = result // p * (p - 1)
            while remaining % p == 0:
                remaining //= p
        p += 1
    if remaining > 1:
        result = result // remaining * (remaining - 1)
    return result


def sl2_elements(modulus: Modulus) -> list[Mat2]:
    """Every determinant-1 matrix mod N, by brute force over all N^4 entries."""
    n = modulus.n
    return [Mat2(a, b, c, d, modulus)
            for a in range(n) for b in range(n) for c in range(n) for d in range(n)
            if (a * d - b * c) % n == 1]


class DenseReference:
    """The dense transfer-matrix DP over the whole group, as a test oracle.

    One count per element of SL2(Z/NZ); each letter acts by the explicit
    matrix product elementary(a) @ g.  Time and memory grow as N * |G|, so
    it serves small moduli only.
    """

    def __init__(self, modulus: Modulus):
        self.modulus = modulus
        self.elements = sl2_elements(modulus)
        index = {g: i for i, g in enumerate(self.elements)}
        self.identity = index[identity(modulus)]
        self.actions = [[index[elementary(a, modulus) @ g] for g in self.elements]
                        for a in range(modulus.n)]

    def snapshots(self, size: int, constraints=None) -> list[list[int]]:
        """Counts per element (in ``elements`` order) after 0..size letters."""
        cons = dict(constraints or {})
        counts = [0] * len(self.elements)
        counts[self.identity] = 1
        out = [counts]
        for pos in range(1, size + 1):
            fresh = [0] * len(counts)
            for a in allowed_values(self.modulus, cons.get(pos, ANY)):
                perm = self.actions[a]
                for g, c in enumerate(counts):
                    if c:
                        fresh[perm[g]] += c
            counts = fresh
            out.append(counts)
        return out
