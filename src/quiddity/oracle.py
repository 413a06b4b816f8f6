"""Brute-force ground truth: enumerate or count constrained tuple sets.

A SetSpec describes tuples (a_1, ..., a_n) over Z/NZ whose continuant
product equals a fixed target matrix, with optional per-position
constraints (fixed value, unit, non-unit).  Enumeration is exhaustive and
deterministic; counting can also run as a meet-in-the-middle hash join on
the midpoint group element, which must agree with the naive count.

This module is the independent oracle for every other count source, so it
deliberately shares no machinery with the dynamic program.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .modring import Modulus, Residue, NotAUnit
from .sl2 import Mat2, continuant_product

DEFAULT_BUDGET = 1 << 27


def default_budget() -> int:
    env = os.environ.get("QUIDDITY_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    try:
        budget = int(env)
    except ValueError:
        budget = 0  # rejected below with the other non-positive values
    if budget <= 0:
        raise ValueError(f"QUIDDITY_BUDGET must be a positive integer, got {env!r}")
    return budget


class BudgetExceeded(RuntimeError):
    def __init__(self, required: int, budget: int):
        super().__init__(f"enumeration needs {required} candidates, budget is {budget}")
        self.required = required
        self.budget = budget


@dataclass(frozen=True)
class Constraint:
    kind: str  # "any" | "unit" | "nonunit" | "fixed"
    value: int | None = None


ANY = Constraint("any")
UNIT = Constraint("unit")
NONUNIT = Constraint("nonunit")


def fixed(value) -> Constraint:
    return Constraint("fixed", int(value))


def allowed_values(modulus: Modulus, constraint: Constraint) -> tuple[int, ...]:
    n = modulus.n
    if constraint.kind == "any":
        return tuple(range(n))
    if constraint.kind == "unit":
        return tuple(v for v in range(n) if math.gcd(v, n) == 1)
    if constraint.kind == "nonunit":
        return tuple(v for v in range(n) if math.gcd(v, n) != 1)
    if constraint.kind == "fixed":
        return (constraint.value % n,)
    raise ValueError(f"unknown constraint kind {constraint.kind!r}")


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
        if con.kind == "fixed":
            con = Constraint("fixed", con.value % modulus.n)
        if con.kind != "any":
            out[pos] = con
    return out


class SetSpec:
    """Size, target matrix, and per-position constraints (1-based positions)."""

    __slots__ = ("size", "target", "constraints")

    def __init__(self, size: int, target: Mat2, constraints=None):
        if size < 1:
            raise ValueError("tuple size must be >= 1")
        if target.det() != 1:
            raise ValueError("target must have determinant 1")
        self.size = size
        self.target = target
        cons = normalize_constraints(constraints, size, target.modulus)
        self.constraints = tuple(sorted(cons.items()))

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

    def free_positions(self) -> int:
        return sum(1 for p in range(1, self.size + 1) if self.constraint_at(p).kind != "fixed")

    def naive_candidates(self) -> int:
        total = 1
        for vals in self.position_values():
            total *= len(vals)
        return total

    def matches(self, t) -> bool:
        """Does a tuple of residues belong to this set?"""
        if len(t) != self.size:
            return False
        values = self.position_values()
        if any(int(a) not in values[i] for i, a in enumerate(t)):
            return False
        return continuant_product(t, self.modulus) == self.target

    def _key(self):
        return (self.size, self.target.key(), self.modulus.n, self.constraints)

    def __eq__(self, other):
        return isinstance(other, SetSpec) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"SetSpec(size={self.size}, target={self.target!r}, constraints={self.constraints})"


def solutions(spec: SetSpec, budget: int | None = None):
    """Yield every tuple in the set, in lexicographic order.

    Positions are filled 1..n with values ascending, so the stream is
    reproducible run to run.
    """
    budget = default_budget() if budget is None else budget
    required = spec.naive_candidates()
    if required > budget:
        raise BudgetExceeded(required, budget)
    values = spec.position_values()
    n = spec.size
    mod = spec.modulus
    N = mod.n
    tgt = spec.target.entries()
    out = [0] * n

    def rec(pos, p, q, r, s):
        if pos == n:
            if (p, q, r, s) == tgt:
                yield tuple(Residue(v, mod) for v in out)
            return
        for a in values[pos]:
            out[pos] = a
            yield from rec(pos + 1, (a * p - r) % N, (a * q - s) % N, p, q)

    yield from rec(0, 1, 0, 0, 1)


def _count_naive(spec: SetSpec) -> int:
    values = spec.position_values()
    n = spec.size
    N = spec.modulus.n
    tgt = spec.target.entries()

    def rec(pos, p, q, r, s):
        if pos == n:
            return 1 if (p, q, r, s) == tgt else 0
        total = 0
        for a in values[pos]:
            total += rec(pos + 1, (a * p - r) % N, (a * q - s) % N, p, q)
        return total

    return rec(0, 1, 0, 0, 1)


def _half_products(values, N):
    """Map packed product key -> number of tuples over the given positions."""
    buckets = {}

    def rec(pos, p, q, r, s):
        if pos == len(values):
            key = ((p * N + q) * N + r) * N + s
            buckets[key] = buckets.get(key, 0) + 1
            return
        for a in values[pos]:
            rec(pos + 1, (a * p - r) % N, (a * q - s) % N, p, q)

    rec(0, 1, 0, 0, 1)
    return buckets


def _count_mitm(spec: SetSpec, split: int) -> int:
    # Tuples factor as target == suffix_product @ prefix_product, so join the
    # two half-enumerations on the prefix product the suffix demands.
    values = spec.position_values()
    N = spec.modulus.n
    ta, tb, tc, td = spec.target.entries()
    prefix = _half_products(values[:split], N)
    total = 0
    for key, times in _half_products(values[split:], N).items():
        key, s = divmod(key, N)
        key, r = divmod(key, N)
        p, q = divmod(key, N)
        # inverse of a det-1 matrix [[p,q],[r,s]] is [[s,-q],[-r,p]]
        need = (
            ((s * ta - q * tc) % N * N + (s * tb - q * td) % N) * N
            + (p * tc - r * ta) % N
        ) * N + (p * td - r * tb) % N
        total += times * prefix.get(need, 0)
    return total


def _choose_split(spec: SetSpec) -> int:
    sizes = [len(v) for v in spec.position_values()]
    best, best_cost = 1, None
    for k in range(1, spec.size):
        left = math.prod(sizes[:k])
        right = math.prod(sizes[k:])
        cost = max(left, right)
        if best_cost is None or cost < best_cost:
            best, best_cost = k, cost
    return best


def count(spec: SetSpec, method: str = "auto", budget: int | None = None,
          split: int | None = None) -> int:
    """Exact size of the set.

    method "naive" walks every candidate; "mitm" joins two half
    enumerations on the midpoint product; "auto" picks mitm once six or
    more positions are free.  All methods agree; the budget bounds the
    number of candidates the chosen method examines.
    """
    budget = default_budget() if budget is None else budget
    if method == "auto":
        method = "mitm" if (spec.size >= 2 and spec.free_positions() >= 6) else "naive"
    if method == "naive":
        required = spec.naive_candidates()
        if required > budget:
            raise BudgetExceeded(required, budget)
        return _count_naive(spec)
    if method == "mitm":
        if spec.size < 2:
            raise ValueError("meet-in-the-middle needs size >= 2")
        k = _choose_split(spec) if split is None else split
        if not 1 <= k < spec.size:
            raise ValueError(f"split {k} outside 1..{spec.size - 1}")
        sizes = [len(v) for v in spec.position_values()]
        required = math.prod(sizes[:k]) + math.prod(sizes[k:])
        if required > budget:
            raise BudgetExceeded(required, budget)
        return _count_mitm(spec, k)
    raise ValueError(f"unknown method {method!r}")


def product_histogram(size: int, modulus: Modulus, constraints=None,
                      budget: int | None = None) -> dict[Mat2, int]:
    """Walk all candidate tuples once and bucket them by final product.

    Independent full-distribution oracle: summing the histogram recovers
    the number of candidates, and each bucket equals count() on that target.
    """
    budget = default_budget() if budget is None else budget
    probe = SetSpec(size, Mat2(1, 0, 0, 1, modulus), constraints)
    required = probe.naive_candidates()
    if required > budget:
        raise BudgetExceeded(required, budget)
    values = probe.position_values()
    N = modulus.n
    buckets: dict[int, int] = {}

    def rec(pos, p, q, r, s):
        if pos == size:
            key = ((p * N + q) * N + r) * N + s
            buckets[key] = buckets.get(key, 0) + 1
            return
        for a in values[pos]:
            rec(pos + 1, (a * p - r) % N, (a * q - s) % N, p, q)

    rec(0, 1, 0, 0, 1)
    out = {}
    for key, times in buckets.items():
        key, d = divmod(key, N)
        key, c = divmod(key, N)
        a, b = divmod(key, N)
        out[Mat2(a, b, c, d, modulus)] = times
    return out


def count_zero_pairs(m: int) -> int:
    """Number of pairs of non-units of Z/2^m Z whose product is zero."""
    if m < 2:
        raise ValueError("need m >= 2")
    n = 1 << m
    evens = range(0, n, 2)
    return sum(1 for x in evens for y in evens if (x * y) % n == 0)


def psi(u: Residue, v: Residue, w: Residue) -> Residue:
    """((vw - 1)(uv - 1) - 1) * v^-1; a unit whenever uv - 1 is a non-unit."""
    if not v.is_unit:
        raise NotAUnit(f"{v.value} is not invertible mod {v.modulus.n}")
    return ((v * w - 1) * (u * v - 1) - 1) * v.inverse()


def psi_domain(modulus: Modulus):
    """All (u, v, w) with u, v units and w arbitrary, in ascending order."""
    n = modulus.n
    units = [Residue(v, modulus) for v in range(n) if math.gcd(v, n) == 1]
    everything = [Residue(v, modulus) for v in range(n)]
    return [(u, v, w) for u in units for v in units for w in everything]


def psi_fiber(modulus: Modulus, x: Residue) -> list[tuple[Residue, Residue, Residue]]:
    """The triples (u, v, w) with psi(u, v, w) == x."""
    return [t for t in psi_domain(modulus) if psi(*t) == x]
