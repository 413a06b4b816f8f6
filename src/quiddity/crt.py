"""Chinese-remainder counting across the coprime pieces of a modulus,
and the closed form that counts a prime-power spec.

A tuple over Z/NZ, N = 2^m * p_1^k_1 * ... * p_r^k_r (distinct odd
primes), is exactly its tuple of residues modulo each prime power, and its
product reduces the same way.  So the router (``route.route_count``, read
here as ``crt.route_count`` too), under auto and formula, counts a spec
over two or more pieces as the product of its pieces' counts
(piece_counts), each piece by a closed formula where one applies
(closed_form), else the DP or the brute oracle.  dp and brute count over
Z/NZ directly and never load this module, which keeps the three sources
independent.  The componentwise tuple bijection ships as a TupleMap so it
can be harness-verified, not just assumed at count level.

``formulas`` is imported once a closed form is chosen and the harness
``maps`` by the bijection alone.  No walk is priced here: each source
charges the walk it runs.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .modring import Modulus, factorize
from .route import route_count
from .sl2 import Mat2, identity, neg_identity, target_label, target_name
from .spec import NONUNIT, SetSpec, UNIT, constraint_text


class NonSquarefreeOddPart(ValueError):
    """Once raised by split for a repeated odd prime; split now accepts
    every modulus >= 2 and no longer raises it."""


class Factorization(namedtuple("Factorization", "two_exponent odd_primes odd_exponents",
                               defaults=((),))):
    """N = 2^two_exponent * product of p^k over the distinct odd primes p
    (ascending), with k read from odd_exponents; () means every k is 1."""

    __slots__ = ()

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


def _form(spec: SetSpec) -> tuple[str, tuple] | None:
    """The name and arguments of the ``formulas`` function that counts
    ``spec`` over a prime power, or None."""
    name, ((p, k), *other_primes) = target_name(spec.target), factorize(spec.modulus.n)
    if name is None or other_primes:
        return None
    if spec.constraints == ((2, UNIT),) and p == 2 and k >= 2:
        return "delta_value", (spec.size, k, name)
    if spec.constraints or name not in ("id", "neg-id"):
        return None
    size, sign = spec.size, 1 if name == "id" else -1
    if p > 2:
        return ("u_count", (size, p, sign)) if k == 1 and size > 4 else None
    if k == 1:
        return None
    if size % 2 and size >= 5:
        return "w_odd_2m", ((size - 1) // 2, k, sign)
    if size == 4:
        return "w4_2m", (k, sign)
    if size % 2 == 0 and size >= 6 and k == 2:
        return "w4_ring4", (size, sign)
    return None


def closed_form(spec: SetSpec):
    """The closed form (a formulas.FormulaValue) that counts ``spec`` over
    a prime power, or None.

    A unit second entry at a named target over Z/2^mZ (m >= 2) takes
    delta_value, an unconstrained +-Id spec its piece formula; the target
    is read from its matrix.  u_count counts over a field, which Z/p^kZ is
    not for k >= 2 (at size 7 and +Id, F_9 has 6643 solutions and Z/9Z
    7371).  A composite modulus has none: route_count splits it.  The
    choice is made before ``formulas`` is imported, so a spec with no
    closed form never loads it.
    """
    form = _form(spec)
    if form is None:
        return None
    from . import formulas

    function, args = form
    return getattr(formulas, function)(*args)


def pieces(spec: SetSpec) -> list[SetSpec]:
    """``spec`` modulo each prime power of its modulus: a tuple lies in
    ``spec`` exactly when its residues lie in every piece.  A unit letter
    stays a unit letter; a non-unit letter, a non-unit modulo some piece
    only, has no such reading and is refused."""
    if any(con == NONUNIT for _, con in spec.constraints):
        raise ValueError("a non-unit letter does not split into coprime pieces")
    return [SetSpec(spec.size, Mat2(*spec.target.entries(), Modulus(p ** k)), spec.constraints)
            for p, k in factorize(spec.modulus.n)]


def piece_counts(spec: SetSpec, method: str = "auto",
                 budget: int | None = None) -> list[tuple[int, int, str]]:
    """(piece modulus, count, source) for every piece of ``spec``."""
    return [(piece.modulus.n, *route_count(piece, method, budget)) for piece in pieces(spec)]


def assemble_count(size: int, fact: Factorization, sign, method: str = "auto",
                   budget: int | None = None):
    """Product of the per-piece +-Id counts, a formulas.FormulaValue; equals
    the direct count over Z/NZ."""
    from . import formulas

    sign, modulus = formulas.normalize_sign(sign), Modulus(fact.modulus_value())
    spec = SetSpec(size, identity(modulus) if sign == 1 else neg_identity(modulus))
    counts = piece_counts(spec, method, budget)
    return formulas.crt_count(size, [(mp, cnt) for mp, cnt, _ in counts], sign)


def crt_split_bijection(spec: SetSpec):
    """The maps.TupleMap of componentwise residue splitting from the tuples
    of ``spec`` to tuples of per-piece tuples of pieces(spec), with CRT
    reconstruction as the inverse: the reduction route_count multiplies over."""
    # Imported here so that counting never loads the bijection harness.
    from .maps import ProductSet, SpecSet, TupleMap

    parts, big, n = pieces(spec), spec.modulus, spec.modulus.n
    if len(parts) < 2:
        raise ValueError(f"{n} does not split into two or more coprime pieces")
    small = [part.modulus for part in parts]
    # CRT basis: e_i = (N / M_i) * ((N / M_i)^-1 mod M_i)
    basis = [(n // mod.n) * pow(n // mod.n, -1, mod.n) for mod in small]

    def forward(t):
        values = [a.value for a in t]
        return tuple(mod.residues(values) for mod in small)

    def backward(per_piece):
        return big.residues([sum(r.value * e for r, e in zip(position, basis))
                             for position in zip(*per_piece)])

    label = ", ".join([f"n={spec.size}", f"N={n}", f"target={target_label(spec.target)}",
                       *(constraint_text(p, con) for p, con in spec.constraints)])
    return TupleMap(f"crt-split({label})", SpecSet(spec),
                    ProductSet(SpecSet(part) for part in parts), forward, backward)
