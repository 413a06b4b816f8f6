"""The set spec and the candidate budget, shared by every count source.

A SetSpec describes tuples (a_1, ..., a_n) over Z/NZ whose continuant
product equals a fixed target matrix, with optional per-position
constraints (fixed value, unit, non-unit), each with one spelling that
parse_constraint reads and constraint_text writes.  The budget bounds the
work one count may do: QUIDDITY_BUDGET, else DEFAULT_BUDGET.

The DP, the CRT router and the CLI read these without loading the brute
oracle's walkers; ``oracle`` re-binds them, as the same objects, for its
own callers.
"""

import math
import os
from collections import namedtuple
from functools import lru_cache

from .modring import Modulus, factorize, totient
from .sl2 import Mat2, continuant_entries

DEFAULT_BUDGET = 1 << 27


def default_budget() -> int:
    env = os.environ.get("QUIDDITY_BUDGET")
    return parse_budget(env, "QUIDDITY_BUDGET") if env else DEFAULT_BUDGET


def parse_budget(text: str, source: str) -> int:
    """A budget given as text; refused, naming its source, unless positive."""
    try:
        budget = int(text)
    except ValueError:
        budget = 0  # rejected below with the other non-positive values
    if budget <= 0:
        raise ValueError(f"{source} must be a positive integer, got {text!r}")
    return budget


class BudgetExceeded(RuntimeError, ValueError):
    """A walk needs more candidates than the budget allows; a ValueError
    too, so that the CLI reports it as a bad request."""

    walk, unit = "enumeration", "candidates"  # the DP's CapExceeded names its own

    def __init__(self, required: int, budget: int, at_least: bool = False):
        try:
            needs = f"{'at least ' if at_least else ''}{required} {self.unit}"
        except ValueError:  # past the interpreter's int-to-str limit, refused by size
            # the digits of 2^(bits-1) <= required: a bound that needs no str()
            digits = int((required.bit_length() - 1) * math.log10(2)) + 1
            needs = f"a count of {self.unit} at least {digits} digits long"
        super().__init__(f"{self.walk} needs {needs}, budget is {budget}")
        self.required = required
        self.budget = budget


def _admit(required: int, budget: int | None, refusal=BudgetExceeded, at_least=False):
    """The one place a charge meets the budget (default_budget() when None):
    raise ``refusal`` unless ``required``, a lower bound with ``at_least``, fits."""
    budget = default_budget() if budget is None else budget
    if required > budget:
        raise refusal(required, budget, at_least)


# kind is "any", "unit", "nonunit" or "fixed"; only a fixed letter has a value
Constraint = namedtuple("Constraint", "kind value", defaults=(None,))


ANY = Constraint("any")
UNIT = Constraint("unit")
NONUNIT = Constraint("nonunit")


@lru_cache(maxsize=1024)
def fixed(value) -> Constraint:
    """The constraint pinning a letter to ``value``, one object per value."""
    return Constraint("fixed", int(value))


_KINDS = {"unit": UNIT, "nonunit": NONUNIT}


def parse_constraint(text: str) -> dict[int, Constraint]:
    """The letter constraint ``text`` names: {} for none, else {K: c} for
    aK-unit, aK-nonunit or aK=V, with K and V read by int() as every
    integer option is.  constraint_text writes it back."""
    if text == "none":
        return {}
    pos, is_fixed, value = text[1:].partition("=")
    if not is_fixed:
        pos, _, kind = pos.rpartition("-")
    try:
        if text[:1] == "a" and (is_fixed or kind in _KINDS):
            return {int(pos): fixed(int(value)) if is_fixed else _KINDS[kind]}
    except ValueError:
        pass
    raise ValueError(f"cannot parse constraint {text!r} (want aK-unit, aK-nonunit or aK=V)")


def constraint_text(pos: int, con: Constraint) -> str:
    """The one spelling of ``con`` at position ``pos``, which
    parse_constraint reads back; none for ANY, which a spec drops."""
    if con.kind == "any":
        return "none"
    return f"a{pos}={con.value}" if con.kind == "fixed" else f"a{pos}-{con.kind}"


def allowed_values(modulus: Modulus, constraint: Constraint) -> tuple[int, ...]:
    n = modulus.n
    if constraint.kind == "any":
        return tuple(range(n))
    if constraint.kind == "unit":
        return tuple(v for v in range(n) if math.gcd(v, n) == 1)
    if constraint.kind == "nonunit":  # the multiples of N's primes: no scan of the ring
        return tuple(sorted(set().union(*(range(0, n, p) for p, _ in factorize(n)))))
    if constraint.kind == "fixed":
        return (constraint.value % n,)
    raise ValueError(f"unknown constraint kind {constraint.kind!r}")


def _allowed_count(modulus: Modulus, constraint: Constraint) -> int:
    """len(allowed_values(modulus, constraint)), without listing the values."""
    n = modulus.n
    if constraint.kind == "any":
        return n
    if constraint.kind == "unit":
        return totient(n)
    if constraint.kind == "nonunit":
        return n - totient(n)
    if constraint.kind == "fixed":
        return 1
    raise ValueError(f"unknown constraint kind {constraint.kind!r}")


@lru_cache(maxsize=256)
def _allowed_set(modulus: Modulus, constraint: Constraint) -> frozenset[int]:
    return frozenset(allowed_values(modulus, constraint))


def normalize_constraints(constraints, size: int, modulus: Modulus) -> dict[int, Constraint]:
    """Check per-position constraints (a dict or (position, constraint) pairs).

    Positions must lie in 1..size and appear once; fixed values are reduced
    mod N and "any" entries dropped.
    """
    out: dict[int, Constraint] = {}
    if not constraints:
        return out
    pairs = constraints.items() if isinstance(constraints, dict) else constraints
    seen = set()
    for pos, con in pairs:
        if not 1 <= pos <= size:
            raise ValueError(f"constraint position {pos} outside 1..{size}")
        if pos in seen:
            raise ValueError(f"duplicate constraint for position {pos}")
        seen.add(pos)
        if con.kind == "fixed" and not 0 <= con.value < modulus.n:
            con = fixed(con.value % modulus.n)
        if con.kind != "any":
            out[pos] = con
    return out


class SetSpec:
    """Size, target matrix, and per-position constraints (1-based positions)."""

    # _allowed caches one frozenset of values per position for matches(),
    # shared between positions and specs with the same constraint, and _hash
    # caches the hash; both derive from the rest, so equality ignores them.
    __slots__ = ("size", "target", "constraints", "_allowed", "_hash")

    def __init__(self, size: int, target: Mat2, constraints=None):
        if size < 1:
            raise ValueError("tuple size must be >= 1")
        if target.det() != 1:
            raise ValueError("target must have determinant 1")
        self.size = size
        self.target = target
        cons = normalize_constraints(constraints, size, target.modulus)
        self.constraints = tuple(sorted(cons.items()))
        self._allowed = None
        self._hash = None

    @property
    def modulus(self) -> Modulus:
        return self.target.modulus

    def constraint_at(self, pos: int) -> Constraint:
        for p, con in self.constraints:
            if p == pos:
                return con
        return ANY

    def position_values(self) -> list[tuple[int, ...]]:
        return [allowed_values(self.modulus, self.constraint_at(p)) for p in range(1, self.size + 1)]

    def position_counts(self) -> list[int]:
        """The number of allowed letters at each position; refusals are
        decided from these, so a refused spec lists no values."""
        counts = [self.modulus.n] * self.size  # a free letter's, then each constrained one's
        for p, con in self.constraints:
            counts[p - 1] = _allowed_count(self.modulus, con)
        return counts

    def naive_candidates(self) -> int:
        return math.prod(self.position_counts())

    def matches(self, t) -> bool:
        """Does a tuple of residues belong to this set?  The letters must
        be Residues: their values are read with .value, not int()."""
        if len(t) != self.size:
            return False
        if self._allowed is None:
            self._allowed = tuple(_allowed_set(self.modulus, self.constraint_at(p))
                                  for p in range(1, self.size + 1))
        # every position's allowed set, "any" too, refuses a value outside 0..N-1
        values = [a.value for a in t]
        return (all(map(frozenset.__contains__, self._allowed, values))
                and continuant_entries(values, self.modulus.n) == self.target.entries())

    def __eq__(self, other):
        # field by field: no key tuple is built per comparison
        return isinstance(other, SetSpec) and (
            self.size == other.size and self.constraints == other.constraints
            and self.target.modulus.n == other.target.modulus.n
            and self.target.entries() == other.target.entries())

    def __hash__(self):
        if self._hash is None:
            target = self.target
            self._hash = hash((self.size, target.key(), target.modulus.n, self.constraints))
        return self._hash

    def __repr__(self):
        return f"SetSpec(size={self.size}, target={self.target!r}, constraints={self.constraints})"
