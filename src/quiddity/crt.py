"""Chinese-remainder counting across the coprime pieces of a modulus.

A tuple over Z/NZ, N = 2^m * p_1^k_1 * ... * p_r^k_r (distinct odd
primes), is exactly its tuple of residues modulo each prime power, and its
product reduces the same way.  So route_count, under auto and formula,
counts a spec over two or more pieces as the product of its pieces'
counts, each piece by a closed formula where one applies, else the DP or
the brute oracle.  dp and brute count over Z/NZ directly, which keeps the
three sources independent.  The componentwise tuple bijection ships as a
TupleMap so it can be harness-verified, not just assumed at count level.

Each count source is imported where the route takes it: ``formulas`` once
a closed form is chosen, ``counter`` once the DP is asked, ``oracle`` on
the brute branch, and the harness ``maps`` by the bijection alone.  A
fresh process then compiles only the sources its count runs.  No walk is
priced here: each source charges the walk it runs.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .modring import Modulus, factorize
from .sl2 import Mat2, identity, neg_identity, target_name
from .spec import NONUNIT, SetSpec, UNIT

if TYPE_CHECKING:
    from .formulas import FormulaValue
    from .maps import TupleMap


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


def closed_form(spec: SetSpec) -> FormulaValue | None:
    """The closed form that counts ``spec`` over a prime power, or None.

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


def route_count(spec: SetSpec, method: str, budget: int | None = None) -> tuple[int, str]:
    """(count, source) from the source ``method`` allows.

    auto and formula count a spec over two or more coprime pieces as the
    product of its pieces' counts, a non-unit letter as a free one minus a
    unit one; the source is formula if every piece took a closed form,
    else brute if any piece asked the oracle, else dp.  Over a prime power
    they take closed_form(spec) unless it is None (formula then refuses).
    dp runs the DP or raises CapExceeded; brute, and auto on that
    refusal, ask the oracle.
    """
    if method in ("auto", "formula") and len(factorize(spec.modulus.n)) > 1:
        nonunit = next((p for p, con in spec.constraints if con == NONUNIT), None)
        if nonunit is None:
            routed = [(cnt, src) for _, cnt, src in piece_counts(spec, method, budget)]
            value = math.prod(cnt for cnt, _ in routed)
        else:
            rest = [(p, con) for p, con in spec.constraints if p != nonunit]
            routed = [route_count(SetSpec(spec.size, spec.target, rest + unit), method, budget)
                      for unit in ([], [(nonunit, UNIT)])]
            value = routed[0][0] - routed[1][0]
        # formula only if every piece took one, else brute if any piece did
        return value, min((src for _, src in routed), key=("brute", "dp", "formula").index)
    if method in ("auto", "formula"):
        value = closed_form(spec)
        if value is not None:
            return int(value), "formula"
        if method == "formula":
            from .formulas import UnsupportedCase

            raise UnsupportedCase(f"no formula for size {spec.size} over Z/{spec.modulus.n}Z")
    if method in ("auto", "dp"):
        from . import counter

        try:
            return counter.dp_count(spec, budget), "dp"
        except counter.CapExceeded:
            if method == "dp":
                raise
    elif method != "brute":
        raise ValueError(f"unknown method {method!r}")
    from . import oracle

    return oracle.count(spec, "auto", budget), "brute"


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
                   budget: int | None = None) -> FormulaValue:
    """Product of the per-piece +-Id counts; equals the direct count over Z/NZ."""
    from . import formulas

    sign, modulus = formulas.normalize_sign(sign), Modulus(fact.modulus_value())
    spec = SetSpec(size, identity(modulus) if sign == 1 else neg_identity(modulus))
    counts = piece_counts(spec, method, budget)
    return formulas.crt_count(size, [(mp, cnt) for mp, cnt, _ in counts], sign)


def crt_split_bijection(spec: SetSpec) -> TupleMap:
    """Componentwise residue splitting from the tuples of ``spec`` to
    tuples of per-piece tuples of pieces(spec), with CRT reconstruction as
    the inverse: the reduction route_count multiplies over."""
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

    target = target_name(spec.target) or ",".join(map(str, spec.target.entries()))
    letters = "".join(f", a{p}={con.value if con.value is not None else con.kind}"
                      for p, con in spec.constraints)
    return TupleMap(f"crt-split(n={spec.size}, N={n}, target={target}{letters})",
                    SpecSet(spec), ProductSet(SpecSet(part) for part in parts),
                    forward, backward)
