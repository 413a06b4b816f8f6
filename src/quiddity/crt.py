"""Chinese-remainder assembly of counts across coprime modulus pieces.

Every modulus N = 2^m * p_1^k_1 * ... * p_r^k_r (distinct odd primes)
splits a solution count into a product of per-piece counts, one for each
prime power.  Pieces come from closed formulas where those apply, falling
back to the DP or the brute oracle everywhere else.  The underlying
componentwise tuple bijection ships as a TupleMap so it can be
harness-verified, not just assumed at count level.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import counter, formulas, oracle
from .modring import Modulus, Residue, factorize
from .oracle import SetSpec, UNIT
from .sl2 import identity, neg_identity, target_name


class NonSquarefreeOddPart(ValueError):
    """Once raised by split for a repeated odd prime; split now accepts
    every modulus >= 2 and no longer raises it."""


class Factorization(NamedTuple):
    """N = 2^two_exponent * product of p^k over the distinct odd primes p
    (ascending), with k read from odd_exponents; () means every k is 1."""

    two_exponent: int | None
    odd_primes: tuple[int, ...]
    odd_exponents: tuple[int, ...] = ()

    def prime_powers(self) -> list[tuple[int, int]]:
        """(p, k) for every coprime piece p^k, the 2-power first."""
        powers = [] if self.two_exponent is None else [(2, self.two_exponent)]
        exponents = self.odd_exponents or (1,) * len(self.odd_primes)
        return powers + list(zip(self.odd_primes, exponents))

    def modulus_value(self) -> int:
        return math.prod(self.piece_moduli())

    def piece_moduli(self) -> tuple[int, ...]:
        return tuple(p ** k for p, k in self.prime_powers())


def split(n: int) -> Factorization:
    """N >= 2 as modring.factorize finds it: its 2-power and odd prime powers."""
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    powers = dict(factorize(n))
    m = powers.pop(2, None)
    repeated = tuple(powers.values()) if max(powers.values(), default=1) > 1 else ()
    return Factorization(m, tuple(powers), repeated)


def _piece_formula(size: int, p: int, k: int, sign: int):
    """The closed form for the piece Z/p^kZ, or None.  u_count counts over
    a field, which Z/p^kZ is not for k >= 2 (at size 7 and +Id, F_9 has
    6643 solutions and Z/9Z 7371); the 2-power forms need m = k >= 2."""
    if p > 2:
        return formulas.u_count(size, p, sign) if k == 1 and size > 4 else None
    if k == 1:
        return None
    if size % 2 and size >= 5:
        return formulas.w_odd_2m((size - 1) // 2, k, sign)
    if size == 4:
        return formulas.w4_2m(k, sign)
    if size % 2 == 0 and size >= 6 and k == 2:
        return formulas.w4_ring4(size, sign)
    return None


def closed_form(spec: SetSpec) -> formulas.FormulaValue | None:
    """The closed form that counts ``spec``, or None when none does.

    An unconstrained +-Id spec takes the product of its piece formulas when
    every piece has one, a unit second entry at a named target over
    Z/2^mZ delta_value.  The target is read from its matrix.  A modulus
    too large to factor raises split's ValueError.
    """
    name, m = target_name(spec.target), spec.modulus.two_adic
    if spec.constraints == ((2, UNIT),) and m is not None and name is not None:
        return formulas.delta_value(spec.size, m, name)
    if spec.constraints or name not in ("id", "neg-id"):
        return None
    fact = split(spec.modulus.n)
    sign = 1 if name == "id" else -1
    values = [_piece_formula(spec.size, p, k, sign) for p, k in fact.prime_powers()]
    if any(value is None for value in values):
        return None
    return formulas.crt_count(spec.size, zip(fact.piece_moduli(), values), sign)


def two_part_count(size: int, m: int, sign: int, method: str = "auto",
                   budget: int | None = None) -> tuple[int, str]:
    """Count for the 2^m piece, with the source that produced it."""
    return route_count(_piece_spec(size, Modulus(1 << m), sign), method, budget)


def prime_count(size: int, q: int, sign: int, method: str = "auto",
                budget: int | None = None) -> tuple[int, str]:
    """Count for an odd prime-power piece Z/qZ, with the source used."""
    return route_count(_piece_spec(size, Modulus(q), sign), method, budget)


def route_count(spec: SetSpec, method: str, budget: int | None = None) -> tuple[int, str]:
    """(count, source) from the source ``method`` allows.  auto and formula
    take closed_form(spec) unless it is None (formula then refuses); dp runs
    the DP or raises CapExceeded; brute, and auto when the DP's predicted
    cost exceeds the budget, ask the oracle."""
    if method in ("auto", "formula"):
        value = closed_form(spec)
        if value is not None:
            return int(value), "formula"
        if method == "formula":
            raise formulas.UnsupportedCase(
                f"no formula for size {spec.size} over Z/{spec.modulus.n}Z")
    budget = oracle.default_budget() if budget is None else budget
    if method == "dp" or method == "auto" and counter.walk_cost(
            spec.size, spec.modulus, spec.constraints) <= budget:
        return counter.dp_count(spec, budget), "dp"
    if method not in ("auto", "brute"):
        raise ValueError(f"unknown method {method!r}")
    return oracle.count(spec, "auto", budget), "brute"


def _piece_spec(size: int, modulus: Modulus, sign: int) -> SetSpec:
    target = identity(modulus) if sign == 1 else neg_identity(modulus)
    return SetSpec(size, target)


def piece_counts(size: int, fact: Factorization, sign: int, method: str = "auto",
                 budget: int | None = None) -> list[tuple[int, int, str]]:
    """(piece modulus, count, source) for every coprime piece."""
    sign = formulas.normalize_sign(sign)
    out = []
    for p, k in fact.prime_powers():
        if p == 2:
            value, source = two_part_count(size, k, sign, method, budget)
        else:
            value, source = prime_count(size, p ** k, sign, method, budget)
        out.append((p ** k, value, source))
    return out


def assemble_count(size: int, fact: Factorization, sign, method: str = "auto",
                   budget: int | None = None) -> formulas.FormulaValue:
    """Product of the per-piece counts; equals the direct count over Z/NZ."""
    sign = formulas.normalize_sign(sign)
    pieces = piece_counts(size, fact, sign, method, budget)
    return formulas.crt_count(size, [(mp, cnt) for mp, cnt, _ in pieces], sign)


def crt_split_bijection(size: int, n: int, sign: int) -> TupleMap:
    """Componentwise residue splitting from Z/NZ tuples to tuples of
    per-piece tuples, with CRT reconstruction as the inverse."""
    # Imported here so that counting never loads the bijection harness.
    from .maps import ProductSet, SpecSet, TupleMap

    fact = split(n)
    pieces = fact.piece_moduli()
    if len(pieces) < 2:
        raise ValueError(f"{n} does not split into two or more coprime pieces")
    big = Modulus(n)
    small = [Modulus(mp) for mp in pieces]
    # CRT basis: e_i = (N / M_i) * ((N / M_i)^-1 mod M_i)
    basis = [(n // mp) * pow(n // mp, -1, mp) for mp in pieces]
    domain = SpecSet(_piece_spec(size, big, sign))
    codomain = ProductSet([SpecSet(_piece_spec(size, mod, sign)) for mod in small])

    def forward(t):
        return tuple(tuple(Residue(a.value, mod) for a in t) for mod in small)

    def backward(parts):
        merged = []
        for position in zip(*parts):
            value = sum(r.value * e for r, e in zip(position, basis))
            merged.append(Residue(value, big))
        return tuple(merged)

    return TupleMap(f"crt-split(n={size}, N={n}, sign={'+' if sign == 1 else '-'})",
                    domain, codomain, forward, backward)
