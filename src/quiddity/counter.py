"""Transfer-matrix dynamic program on the top rows of SL2(Z/NZ) products.

Left-multiplying a product [[p, q], [r, s]] by the letter matrix
[[a, -1], [1, 0]] gives [[a*p - r, a*q - s], [p, q]]: the new bottom row is
the old top row.  So the product of the first k letters is fixed by its top
row t_k and its bottom row t_{k-1}, and det = 1 says det(t_{k-1}, t_k) = -1.
The rows that occur are the primitive vectors of (Z/NZ)^2, |G|/N of them,
where G = SL2(Z/NZ).

Free step.  For a prefix with rows (t_{k-1}, t_{k-2}), the new top row
a*t_{k-1} - t_{k-2} hits every v with det(t_{k-1}, v) = -1 exactly once as
the letter a runs over Z/NZ.  So the counts c_k of k-letter prefixes by top
row depend only on c_{k-1}:

    c_k(v) = sum of c_{k-1}(w) over the N rows w with det(w, v) = -1,

a walk on the Farey graph mod N.  A free step costs |G| additions; the
graph's in-neighbour lists are built once per call at the same cost.

Pair step.  A constrained position (unit, non-unit or fixed letter) takes
one exact sparse step on (top, bottom) pairs, i.e. on group elements:
[[p, q], [r, s]] -> [[a*p - r, a*q - s], [p, q]] for each allowed a.  After
a free letter the pair counts are c_{k-2}(w) at top v and bottom w for each
det(w, v) = -1; after a constrained letter they are the previous pair
state.  A pair step costs (number of pairs) * (allowed letters), at most
|G| times that; the first steps from the identity are sparse.

Reading counts.  After a free letter k, the number of k-letter tuples with
product X is c_{k-1}(bottom row of X): the letter supplies the one top row
that completes X.  After a constrained letter it is the pair count at X.
Across free letters the state is |G|/N counts, not |G|, and no N * |G|
letter-action table is built.  All counts are exact Python integers.
A call whose walk_cost exceeds the budget (QUIDDITY_BUDGET by default, as
for the oracle) raises CapExceeded before anything is built.
"""

from __future__ import annotations

import math

from .modring import Modulus
from .oracle import SetSpec, allowed_values, default_budget, normalize_constraints
from .sl2 import Mat2, TARGET_NAMES, group_order, identity, target_by_name


class CapExceeded(ValueError):
    """The DP's predicted cost is past the budget."""


class CountVector:
    """Counts of tuples by product after some number of letters.

    Holds either the top-row counts before a free last letter or the pair
    counts after a constrained one (or after no letter at all).
    """

    __slots__ = ("modulus", "_tops", "_pairs")

    def __init__(self, modulus: Modulus, tops: list[int] | None = None,
                 pairs: dict[tuple[int, int, int, int], int] | None = None):
        self.modulus = modulus
        self._tops = tops
        self._pairs = pairs

    def total(self) -> int:
        if self._tops is not None:
            return self.modulus.n * sum(self._tops)
        return sum(self._pairs.values())

    def at(self, target: Mat2) -> int:
        if self._tops is not None:
            if target.det() != 1:
                return 0
            return self._tops[target.c * self.modulus.n + target.d]
        return self._pairs.get(target.entries(), 0)


def _farey_graph(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """(v, rows w with det(w, v) = -1) for every primitive row v mod n.

    Rows are packed as x*n + y.  The in-neighbours of v = (x, y) are
    u + lam*v for any u with det(v, u) = 1.
    """
    packed = list(range(n * n))  # shared int objects for the lists below
    graph = []
    for x in range(n):
        for y in range(n):
            if math.gcd(x, y, n) != 1:
                continue
            # Solve x*q - y*p == 1 (mod n); y is a unit mod gcd(x, n).
            g = math.gcd(x, n)
            p = -pow(y, -1, g) % g
            q = (1 + y * p) // g * pow(x // g, -1, n // g) % n
            sources = tuple(packed[(p + lam * x) % n * n + (q + lam * y) % n]
                            for lam in range(n))
            graph.append((x * n + y, sources))
    return graph


def _walk(tops: list[int], graph) -> list[int]:
    """One free letter: c_k from c_{k-1}."""
    get = tops.__getitem__
    fresh = [0] * len(tops)
    for v, sources in graph:
        fresh[v] = sum(map(get, sources))
    return fresh


def _marginal(pairs: dict, n: int) -> list[int]:
    """Top-row counts of a pair state."""
    tops = [0] * (n * n)
    for (p, q, _, _), c in pairs.items():
        tops[p * n + q] += c
    return tops


def _free_pairs(prev_tops: list[int], graph, n: int):
    """Pair counts after a free letter, from the top-row counts before it."""
    for v, sources in graph:
        p, q = divmod(v, n)
        for w in sources:
            c = prev_tops[w]
            if c:
                r, s = divmod(w, n)
                yield (p, q, r, s), c


def _pair_step(pairs, letters: tuple[int, ...], n: int) -> dict:
    """One constrained letter on (entries, count) pairs of group elements."""
    fresh: dict[tuple[int, int, int, int], int] = {}
    for (p, q, r, s), c in pairs:
        for a in letters:
            key = ((a * p - r) % n, (a * q - s) % n, p, q)
            fresh[key] = fresh.get(key, 0) + c
    return fresh


def walk_cost(size: int, modulus: Modulus, constraints=None) -> int:
    """Upper bound on one call's additions: |G| * (1 + sum of w over positions),
    counting the graph build as 1; w is 1 for a free or fixed letter and N for
    a unit or non-unit one (an upper bound on its allowed letters)."""
    cons = normalize_constraints(constraints, size, modulus).values()
    return group_order(modulus.n) * (1 + size + sum(
        modulus.n - 1 for con in cons if con.kind != "fixed"))


def dp_vector_sequence(size: int, modulus: Modulus, constraints=None,
                       budget: int | None = None) -> list[CountVector]:
    """Vectors after 0, 1, ..., size steps (one DP pass, snapshots kept)."""
    n = modulus.n
    cons = normalize_constraints(constraints, size, modulus)
    budget = default_budget() if budget is None else budget
    cost = walk_cost(size, modulus, cons)
    if cost > budget:
        raise CapExceeded(f"the DP needs {cost} additions, budget is {budget}")
    graph = _farey_graph(n)
    # Exactly one of these is set: the top-row counts before the last
    # letter when it was free, else the pair counts.
    prev_tops, pairs = None, {identity(modulus).entries(): 1}
    snapshots = [CountVector(modulus, pairs=pairs)]
    for pos in range(1, size + 1):
        if pos in cons:
            source = pairs.items() if pairs is not None else _free_pairs(prev_tops, graph, n)
            prev_tops, pairs = None, _pair_step(source, allowed_values(modulus, cons[pos]), n)
        else:
            prev_tops = _marginal(pairs, n) if pairs is not None else _walk(prev_tops, graph)
            pairs = None
        snapshots.append(CountVector(modulus, prev_tops, pairs))
    return snapshots


def dp_vector(size: int, modulus: Modulus, constraints=None, budget=None) -> CountVector:
    return dp_vector_sequence(size, modulus, constraints, budget)[-1]


def dp_count(spec: SetSpec, budget: int | None = None) -> int:
    """Exact set size by DP; equals oracle.count(spec) on every feasible spec."""
    return dp_vector(spec.size, spec.modulus, dict(spec.constraints), budget).at(spec.target)


def dp_count_all_targets(size: int, modulus: Modulus, constraints=None) -> dict[str, int]:
    """Counts for the six named targets (+-Id, +-S, +-T) from one DP pass."""
    vec = dp_vector(size, modulus, constraints)
    return {name: vec.at(target_by_name(name, modulus)) for name in TARGET_NAMES}
