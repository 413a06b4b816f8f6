"""Transfer-matrix dynamic program on the columns of SL2(Z/NZ) products.

Write M(a) = [[a, -1], [1, 0]] for a letter, e1 = (1, 0) and e2 = (0, 1),
so a tuple's product is X = M(a_k) ... M(a_1).  Let G = SL2(Z/NZ).

A free first letter leaves only the second column.  Split X = Y M(a_1),
Y the product of letters 2..k.  As M(a)^-1 = [[0, 1], [-1, a]] sends e1 to
-e2, Y e1 = -X e2 whatever a_1 is; and as a_1 runs over Z/NZ, X M(a_1)^-1
runs once over the N group elements with that first column.  So when
letter 1 is free, the number of k-letter tuples with product X is
g_k(-X e2), where g_k counts the columns M(a_k) ... M(a_2) e1.

Column step.  M(a) (x', y') = (a*x' - y', x'), so after one more letter
the count at column (x, y) is the sum of t(k) g(y, k - x), t(k) the number
of allowed a with a*y = k: all its sources lie in row y.  With d the least
period of t and c its commonest value, the step folds row y mod d, adds c
times its total and the fold's rotations weighted by t(k) - c for k < d,
and tiles the d sums over x; a fixed letter only moves row y's counts.
Every letter after the first free one, free or constrained, takes this
step, which builds nothing that outlives it.

Heads.  A leading run of constrained letters 1..j takes exact sparse steps
on group elements Z, keyed by entries: [[p, q], [r, s]] ->
[[a*p - r, a*q - s], [p, q]] for each allowed a.  At the first free letter
the product is Y M(a_{j+1}) Z, and the argument above, applied to X Z^-1,
gives the count at X as the sum of w_Z g(-X Z^-1 e2) = w_Z g(X (q, -p)).
That depends on Z's top row (p, q) alone, so the run folds once into its
top-row counts, the heads; with no leading run the one head is (1, 0).

All counts are exact Python integers.  spec._admit refuses a call whose
walk_cost exceeds the budget (QUIDDITY_BUDGET by default) with CapExceeded
before anything is built, which sends route.route_count's auto to the oracle.
"""

from .modring import Modulus
from .spec import ANY, BudgetExceeded, SetSpec, _admit, allowed_values, normalize_constraints
from .sl2 import Mat2, TARGET_NAMES, group_order, identity, target_by_name


class CapExceeded(BudgetExceeded):
    """The DP's predicted cost, its walk_cost in additions, is past the budget."""

    walk, unit = "the DP", "additions"


class CountVector:
    """Counts of tuples by product after some number of letters.

    Before the first free letter it holds the counts of group elements;
    from it on, the heads (p, q, w) and the column counts g, and the count
    at X is the sum of w * g(X (q, -p)) over the heads.
    """

    __slots__ = ("modulus", "_pairs", "_heads", "_cols")

    def __init__(self, modulus: Modulus, pairs: dict | None = None,
                 heads: list[tuple[int, int, int]] | None = None,
                 cols: list[int] | None = None):
        self.modulus = modulus
        self._pairs = pairs
        self._heads = heads
        self._cols = cols

    def total(self) -> int:
        if self._pairs is not None:
            return sum(self._pairs.values())
        # X -> X (q, -p) sends the group onto the primitive columns N to one.
        return self.modulus.n * sum(w for _, _, w in self._heads) * sum(self._cols)

    def at(self, target: Mat2) -> int:
        """The count at target, which must be over the vector's own ring."""
        if target.modulus.n != self.modulus.n:
            raise ValueError(f"a count over Z/{self.modulus.n}Z read at a matrix "
                             f"over Z/{target.modulus.n}Z")
        if self._pairs is not None:
            return self._pairs.get(target.entries(), 0)
        if target.det() != 1:
            return 0
        n, cols = self.modulus.n, self._cols
        a, b, c, d = target.entries()
        return sum(w * cols[(a * q - b * p) % n * n + (c * q - d * p) % n]
                   for p, q, w in self._heads)


def _step(cols: list[int], letters: tuple[int, ...], n: int) -> list[int]:
    """One letter on the column counts, packed x*n + y (non-primitive ones 0)."""
    fresh = [0] * (n * n)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    for y in range(n):
        row = cols[y * n:(y + 1) * n]
        if not any(row):
            continue
        if len(letters) == 1:  # a fixed letter moves the row's counts, adding none
            k = letters[0] * y % n
            fresh[y::n] = row[k::-1] + row[:k:-1]
            continue
        t = [0] * n
        for a in letters:
            t[a * y % n] += 1
        d = next(d for d in divisors if t[d:] + t[:d] == t)
        folded = [sum(row[r::d]) for r in range(d)]
        c = max(set(t), key=t.count)
        out = [c * sum(folded) if c else 0] * d
        for k in range(d):
            if w := t[k] - c:
                out = [u + w * v for u, v in zip(out, folded[k::-1] + folded[:k:-1])]
        fresh[y::n] = out * (n // d)
    return fresh


def _pair_step(pairs: dict, letters: tuple[int, ...], n: int) -> dict:
    """One constrained letter of a leading run, on group elements."""
    fresh: dict[tuple[int, int, int, int], int] = {}
    for (p, q, r, s), c in pairs.items():
        for a in letters:
            key = ((a * p - r) % n, (a * q - s) % n, p, q)
            fresh[key] = fresh.get(key, 0) + c
    return fresh


def _heads(pairs: dict) -> list[tuple[int, int, int]]:
    """Top-row counts (p, q, w) of the group elements after a leading run."""
    tops: dict[tuple[int, int], int] = {}
    for (p, q, _, _), c in pairs.items():
        tops[p, q] = tops.get((p, q), 0) + c
    return [(p, q, w) for (p, q), w in tops.items()]


def walk_cost(size: int, modulus: Modulus, constraints=None) -> int:
    """Upper bound on one call's additions: F * (1 + sum of w over positions),
    F = max(|G|, 2 N^2 + N), w = 1 for a free or fixed letter and N for a
    unit or non-unit one.  Constraints come normalized.

    A leading pair step adds at most |G| times per allowed letter, and the
    first free letter's fold into heads |G| times.  A column step adds N
    times to fold a row, d times to sum the folds, and d times for each
    k < d with t(k) != c.  A fixed letter's adds nothing.  A free letter's
    has d = gcd(y, N), at most N/2 unless y = 0, and one such k, so at most
    N^2 + 2 (N + N (N - 1) / 2) = 2 N^2 + N additions in all; a unit or
    non-unit letter's at most N (2 N + N^2) <= N F.  As |G| =
    N^3 prod(1 - 1/p^2) >= 2 N^2 + N for N >= 3, F is |G| but at N = 2."""
    n = modulus.n
    return max(group_order(n), 2 * n * n + n) * (1 + size + sum(
        n - 1 for con in (constraints or {}).values() if con.kind != "fixed"))


def dp_vector_sequence(size: int, modulus: Modulus, constraints=None,
                       budget: int | None = None, *, keep=None) -> list[CountVector | None]:
    """Vectors after 0, 1, ..., size steps from one DP pass.  With keep, a
    collection of sizes, each earlier size not in it reads None, its vector
    dropped as soon as the next is made; the last one is always kept.  A
    negative size is refused before anything is charged or built."""
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    n = modulus.n
    cons = normalize_constraints(constraints, size, modulus)
    _admit(walk_cost(size, modulus, cons), budget, CapExceeded)
    keep = range(size) if keep is None else set(keep)
    pairs, heads, cols = {identity(modulus).entries(): 1}, None, None
    snapshots = [CountVector(modulus, pairs)]
    for pos in range(1, size + 1):
        con = cons.get(pos, ANY)
        if cols is not None:
            cols = _step(cols, allowed_values(modulus, con), n)
        elif con is not ANY:
            pairs = _pair_step(pairs, allowed_values(modulus, con), n)
        else:
            heads, cols, pairs = _heads(pairs), [0] * (n * n), None
            cols[n] = 1  # the column e1 = (1, 0), before any later letter
        if pos - 1 not in keep:
            snapshots[-1] = None
        snapshots.append(CountVector(modulus, pairs, heads, cols))
    return snapshots


def dp_vector(size: int, modulus: Modulus, constraints=None, budget=None) -> CountVector:
    """The vector after size steps; no earlier snapshot is kept."""
    return dp_vector_sequence(size, modulus, constraints, budget, keep=())[-1]


def dp_count(spec: SetSpec, budget: int | None = None) -> int:
    """Exact set size by DP; equals oracle.count(spec) on every feasible spec."""
    return dp_vector(spec.size, spec.modulus, dict(spec.constraints), budget).at(spec.target)


def dp_count_all_targets(size: int, modulus: Modulus, constraints=None) -> dict[str, int]:
    """Counts for the six named targets (+-Id, +-S, +-T) from one DP pass."""
    vec = dp_vector(size, modulus, constraints)
    return {name: vec.at(target_by_name(name, modulus)) for name in TARGET_NAMES}
