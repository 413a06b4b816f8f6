"""Chinese-remainder counting across the coprime pieces of a modulus.

A tuple over Z/NZ, N = 2^m * p_1^k_1 * ... * p_r^k_r (distinct odd
primes), is exactly its tuple of residues modulo each prime power, and its
product reduces the same way.  The router (``route``) counts an auto or
formula spec so; the ``crt`` command and the public API read its pieces
and route_count to report each piece's count (piece_counts) and their
product (assemble_count).  The ``crt`` command's body, cmd_crt, lives
here, so ``cli`` imports this module only for that command.  The
componentwise tuple bijection ships as a TupleMap so it can be
harness-verified, not just assumed at count level.  ``formulas`` is
imported by assemble_count and cmd_crt, and ``maps`` by the bijection.
"""

import math
import time
from collections import namedtuple

from .modring import Modulus, factorize
from .route import pieces, route_count
from .sl2 import identity, neg_identity, target_label
from .spec import SetSpec, constraint_text


class NonSquarefreeOddPart(ValueError):
    """Once raised by split for a repeated odd prime; split accepts them now."""


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


def cmd_crt(args) -> int:
    """The ``crt`` command: each piece's count, with its source, and their
    product, as one JSON report."""
    from . import formulas
    from .cli import _emit

    started = time.perf_counter()
    sign = formulas.normalize_sign(args.sign)
    fact = split(args.modulus)
    modulus = Modulus(args.modulus)
    target = identity(modulus) if sign == 1 else neg_identity(modulus)
    counts = piece_counts(SetSpec(args.size, target), args.method, args.budget)
    total = formulas.crt_count(args.size, [(mp, cnt) for mp, cnt, _ in counts], sign)
    _emit({
        "modulus": args.modulus,
        "size": args.size,
        "sign": formulas.sign_name(sign),
        "factorization": {
            "two_exponent": fact.two_exponent,
            "odd_primes": list(fact.odd_primes),
        },
        "pieces": [{"modulus": mp, "count": str(cnt), "source": src}
                   for mp, cnt, src in counts],
        "count": str(int(total)),
        "elapsed_ms": int((time.perf_counter() - started) * 1000),
    })
    return 0


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
