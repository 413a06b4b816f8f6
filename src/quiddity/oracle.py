"""Brute-force ground truth: enumerate or count constrained tuple sets.

A SetSpec (defined in ``spec``, with the budget) describes tuples
(a_1, ..., a_n) over Z/NZ whose continuant product equals a fixed target
matrix, with optional per-position constraints (fixed value, unit,
non-unit).  Enumeration is exhaustive and deterministic; counting can also
run as a meet-in-the-middle hash join on the midpoint group element, which
must agree with the naive count.

Everything runs on one walk over letter choices, _walk, which carries two
rows through the recurrence (cur, prev) -> (a*cur - prev, cur).  It has
three uses:

* solve (solutions, the naive count): walk the first n - 2 letters; the
  last two are forced by the target and kept only if they land on it and
  are allowed at their positions;
* bucket (_half_products, product_histogram): count every candidate's
  product, or its top row alone, the meet-in-the-middle prefix.  The last
  letter expands in C through per-row tables (_leaf_keys); Python steps
  only through the letters ahead of it.  A histogram may fold its last
  letter onto the distinct products of the others instead (see there);
* probe (the meet-in-the-middle suffix): walk backward from the target,
  E(a_{k+1})^-1 ... E(a_n)^-1 @ target, and look each result up among the
  prefix products.  A free junction letter a_{k+1} is not walked: the
  suffix stops one letter short and looks its bottom row up among the
  prefix products' top rows, each the sum of N full-key probes.  Those
  top rows need not walk letter 1: the top row of Q @ E(a_1) follows from
  Q's top row and a_1, so a long prefix walks letters 2..k and folds
  letter 1 onto their at most N^2 top rows.  The suffix mirrors that: the
  bottom row it looks up follows from the bottom row of
  L = E(a_{k+2})^-1 ... E(a_{n-1})^-1 and a_n, so a long suffix walks
  letters k+2..n-1 into their at most N^2 bottom rows and probes each
  row's keys, one per allowed a_n, in one C-level sum (_probe_folded).
  Each split is priced once, by _join, with either fold charged only
  where it walks fewer candidates, and _count_mitm runs the very _Join
  that count admitted.

This module is the independent oracle for every other count source, so it
deliberately shares no machinery with the dynamic program: it imports only
``spec``, ``sl2`` and ``modring``.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from itertools import chain, repeat
from operator import add, attrgetter

from . import spec as _spec
from .modring import Modulus, Residue, NotAUnit, units_of
from .sl2 import Mat2, group_order

# The set spec and the budget are defined in ``spec``, so that the DP and
# the CRT router read them without loading the walkers below; they stay
# readable from the oracle as the same objects.
SetSpec, Constraint, ANY, UNIT, NONUNIT = (
    _spec.SetSpec, _spec.Constraint, _spec.ANY, _spec.UNIT, _spec.NONUNIT)
fixed, allowed_values, _admit = _spec.fixed, _spec.allowed_values, _spec._admit
DEFAULT_BUDGET, default_budget, BudgetExceeded = (
    _spec.DEFAULT_BUDGET, _spec.default_budget, _spec.BudgetExceeded)


def _walk(values, N, p, q, r, s, out=None):
    """Yield the state after every choice of letters but the last.

    The state is two rows, cur = (p, q) and prev = (r, s); a letter a sends
    it to (a*cur - prev, cur).  Started at a matrix's (top, bottom) rows this
    left-multiplies by the letter matrix [[a, -1], [1, 0]]; started at
    (bottom, top) it left-multiplies by that matrix's inverse.  Letters go
    ascending, position by position, and are written into ``out``; the
    caller runs the last position itself.
    """
    inner = len(values) - 2
    if out is None:
        out = [0] * len(values)

    def rec(pos, p, q, r, s):
        if pos == inner:
            for a in values[pos]:
                out[pos] = a
                yield (a * p - r) % N, (a * q - s) % N, p, q
            return
        for a in values[pos]:
            out[pos] = a
            yield from rec(pos + 1, (a * p - r) % N, (a * q - s) % N, p, q)

    if inner < 0:
        return iter(((p, q, r, s),))
    return rec(0, p, q, r, s)


def _solve(spec: SetSpec):
    """Yield the letters of every tuple in the set, as one reused list.

    Only the first n - 2 letters are walked.  The product's bottom row is
    the top row before the last letter, so letter n-1 must put the target's
    bottom row on top and letter n must then give its top row.  The rows of
    a determinant-1 state are unimodular, so at most one letter does each,
    and det = 1 gives it by Bezout.  Each forced letter is kept only if its
    step really lands on the target rows and it is allowed at its position.
    """
    values = spec.position_values()
    n = spec.size
    N = spec.modulus.n
    ta, tb, tc, td = spec.target.entries()
    out = [0] * n
    if n == 1:
        # the lone letter a gives [[a, -1], [1, 0]]; det 1 makes tb = -1
        # follow from the bottom row
        if tc == 1 and td == 0 and ta in values[0]:
            out[0] = ta
            yield out
        return
    allowed_b = frozenset(values[n - 2])
    allowed_a = frozenset(values[n - 1])
    for p, q, r, s in _walk(values[:n - 1], N, 1, 0, 0, 1, out):
        # letter n-1 must turn [[p, q], [r, s]] into [[tc, td], [p, q]]
        b = (s * tc - r * td) % N
        if (b * p - r - tc) % N or (b * q - s - td) % N or b not in allowed_b:
            continue
        # letter n must turn [[tc, td], [p, q]] into the target
        a = (q * ta - p * tb) % N
        if (a * tc - p - ta) % N or (a * td - q - tb) % N or a not in allowed_a:
            continue
        out[n - 2] = b
        out[n - 1] = a
        yield out


def _solve_cost(spec: SetSpec) -> int:
    """Candidates _solve walks, the allowed letters at positions 1..n-2
    (the last two are forced), plus the values it lists for every position,
    so that a short tuple over a huge modulus is refused before any list
    is built."""
    counts = spec.position_counts()
    return math.prod(counts[:max(spec.size - 2, 0)]) + sum(counts)


def solutions(spec: SetSpec, budget: int | None = None):
    """Yield every tuple in the set, in lexicographic order.

    Positions are filled 1..n with values ascending, so the stream is
    reproducible run to run.  The budget bounds the candidates _solve walks.
    """
    _admit(_solve_cost(spec), budget)
    mod = spec.modulus
    for letters in _solve(spec):
        yield mod.residues(letters)


def _count_naive(spec: SetSpec) -> int:
    return sum(1 for _ in _solve(spec))


class _LetterRows(dict):
    """Packed-key parts of one row coordinate after the last letter, per letter.

    The last letter turns a coordinate x of cur and the same coordinate y of
    prev into a*x - y on the new cur row, and moves x to the prev row.  Key
    x*N + y maps to [(a*x - y) % N * scale + x * lift for each letter a]:
    both values placed at their digit of the packed matrix key.  Adding the
    lists of the two coordinates gives the keys of all of a state's leaves
    without a Python step per letter.  Lists are built on first use.
    """

    __slots__ = ("letters", "N", "scale", "lift")

    def __init__(self, letters, N, scale, lift):
        super().__init__()
        self.letters, self.N, self.scale, self.lift = letters, N, scale, lift

    def __missing__(self, key):
        x, y = divmod(key, self.N)
        row = self[key] = [(a * x - y) % self.N * self.scale + x * self.lift
                           for a in self.letters]
        return row


def _leaf_keys(values, N, start, scales, lifts):
    """Stream the packed key of every leaf of the walk from ``start``.

    _walk steps through every letter but the last, which is expanded
    through _LetterRows: a walked state's leaves are its two coordinates'
    rows added pairwise by ``map(add, ...)``.  The states' streams are
    chained, so the caller consumes every leaf in one C-level call
    (Counter, or sum over map) and no list of leaves is built.
    """
    firsts = _LetterRows(values[-1], N, scales[0], lifts[0])
    seconds = _LetterRows(values[-1], N, scales[1], lifts[1])
    return chain.from_iterable(map(add, firsts[p * N + r], seconds[q * N + s])
                               for p, q, r, s in _walk(values, N, *start))


def _half_products(values, N, top_row: bool = False):
    """Map packed product key -> number of tuples over the given positions;
    with ``top_row`` the key is the product's top row alone."""
    # cur is the top row, so the new cur leads the key and the old cur
    # becomes the bottom row: digits N^3, N^2 and N, 1; or N, 1 and none.
    if top_row:
        return Counter(_leaf_keys(values, N, (1, 0, 0, 1), (N, 1), (0, 0)))
    return Counter(_leaf_keys(values, N, (1, 0, 0, 1), (N ** 3, N * N), (N, 1)))


def _prefix_tops(values, N, fold: bool) -> Counter:
    """Map top row key (first * N + second) -> number of prefix tuples
    whose product has that top row."""
    if not fold:
        return _half_products(values, N, top_row=True)
    # The product Q @ E(a_1), Q = E(a_k) ... E(a_2), has top row
    # (a_1*q11 + q12, -q11): it needs only Q's top row and the letter.
    tops = Counter()
    for row, times in _half_products(values[1:], N, top_row=True).items():
        q11, q12 = divmod(row, N)
        second = -q11 % N
        for a in values[0]:
            tops[(a * q11 + q12) % N * N + second] += times
    return tops


_Join = namedtuple("_Join", "split walked free fold fold_last")
_Join.__doc__ = ("A split's charge (the candidates walked), free junction, and whether "
                 "the prefix folds its first letter and the suffix its last.")


def _join(spec: SetSpec, split: int, sizes: list[int]) -> _Join:
    """The join at ``split``, priced from the allowed-letter counts: the
    suffix walks every leaf but a free junction letter's; the prefix walks
    all of its leaves or, before a free junction and only if that is fewer,
    letters 2..k and one fold update per top row (at most N^2) and letter 1.
    Past a free junction the suffix likewise folds letter n, if that is
    fewer: it walks letters k+2..n-1 and probes each of their at most N^2
    bottom rows once per letter n."""
    free = spec.constraint_at(split + 1).kind == "any"
    square = spec.modulus.n ** 2
    prefix, suffix = math.prod(sizes[:split]), math.prod(sizes[split + free:])
    # the leaves of letters 2..k and k+2..n-1, and a fold onto their rows
    inner_prefix, inner_suffix = math.prod(sizes[1:split]), math.prod(sizes[split + 1:-1])
    folded = inner_prefix + min(square, inner_prefix) * sizes[0]
    folded_last = inner_suffix + min(square, inner_suffix) * sizes[-1]
    fold, fold_last = free and folded < prefix, free and folded_last < suffix
    return _Join(split, (folded if fold else prefix) + (folded_last if fold_last else suffix),
                 free, fold, fold_last)


def _choose_join(spec: SetSpec) -> _Join:
    """The join that walks the fewest candidates, either side folded or not;
    the shorter prefix on a tie, since bucketing a leaf costs more than
    probing one."""
    sizes = spec.position_counts()
    return min((_join(spec, k, sizes) for k in range(1, spec.size)),
               key=attrgetter("walked"))


def _count_mitm(spec: SetSpec, join: _Join) -> int:
    # Tuples factor as target == suffix_product @ prefix_product, so the
    # prefix product must be E(a_{k+1})^-1 ... E(a_n)^-1 @ target.  Walk the
    # suffix backward from the target with its rows swapped and look each
    # result up among the prefix products.
    N = spec.modulus.n
    ta, tb, tc, td = spec.target.entries()
    split, free = join.split, join.free
    # the join never reads a free junction letter, and the budget does not
    # charge its N values, so they are not listed
    junction = split + 1 if free else None
    values = [() if p == junction else allowed_values(spec.modulus, spec.constraint_at(p))
              for p in range(1, spec.size + 1)]
    if free:
        # A free junction letter x is not walked.  Let R be the required
        # product once the rest of the suffix is peeled off (det R = 1).
        # E(x)^-1 R has R's bottom row on top and x*bottom - top below.
        # That row is unimodular, so x -> E(x)^-1 R is a bijection from
        # Z/NZ onto the N determinant-1 matrices with that top row.
        # Summed over x, the prefix products count those with that top
        # row: tops, keyed by the top row alone.
        tops = _prefix_tops(values[:split], N, join.fold)
        suffix = values[split + 1:][::-1]
        if not suffix:
            return tops[tc * N + td]
        if join.fold_last:
            return _probe_folded(tops, suffix, N, (ta, tb, tc, td))
        get, lifts = tops.get, (0, 0)
    else:
        get, lifts = _half_products(values[:split], N).get, (N ** 3, N * N)
        suffix = values[split:][::-1]
    # cur is the bottom row, so the new cur gets digits N, 1 and the old cur
    # leads the key as the new top row at the lifts N^3, N^2; with lifts 0
    # the key is the new bottom row alone, the top row after a free letter.
    keys = _leaf_keys(suffix, N, (tc, td, ta, tb), (N, 1), lifts)
    return sum(map(get, keys, repeat(0)))


def _probe_folded(tops, suffix, N, target) -> int:
    """The free-junction probe with the suffix's last letter a_n folded:
    ``suffix`` lists letters n..k+2, ``tops`` counts the prefix top rows."""
    # R = L @ E(a_n)^-1 @ T with L = E(a_{k+2})^-1 ... E(a_{n-1})^-1, so
    # R's bottom row needs only L's bottom row l and the letter:
    # l @ E(a)^-1 @ T = (-l2, l1 + a*l2) @ T.  Walk L from the identity,
    # rows swapped, and keep its at most N^2 bottom rows, as the prefix
    # keeps its top rows before folding letter 1.
    ta, tb, tc, td = target
    bottoms = Counter(_leaf_keys(suffix[1:], N, (0, 1, 1, 0), (N, 1), (0, 0)))
    # Coordinate j of that row is a*(l2*t2j) - (l2*t1j - l1*t2j): a letter
    # row keyed by those two values, each at its digit of the top-row key.
    firsts = _LetterRows(suffix[0], N, N, 0)
    seconds = _LetterRows(suffix[0], N, 1, 0)
    get, total = tops.get, 0
    for row, times in bottoms.items():
        l1, l2 = divmod(row, N)
        keys = map(add, firsts[l2 * tc % N * N + (l2 * ta - l1 * tc) % N],
                   seconds[l2 * td % N * N + (l2 * tb - l1 * td) % N])
        total += times * sum(map(get, keys, repeat(0)))
    return total


def count(spec: SetSpec, method: str = "auto", budget: int | None = None,
          split: int | None = None) -> int:
    """Exact size of the set.

    method "naive" walks every choice of the first n - 2 letters, the
    last two being forced; "mitm" joins two half enumerations on the
    midpoint product; "auto" picks mitm once six or more positions are
    free.  All methods agree; the budget is an upper bound on the
    candidates the chosen method examines (the naive walk counts its
    choices of n - 2 letters; the join counts the prefix and the suffix
    it walks, which leaves out a free junction letter; before a free
    junction the prefix may instead walk letters 2..k and fold letter 1
    onto their top rows, counted as one candidate per top row and
    letter, whichever is fewer, and past it the suffix may walk letters
    k+2..n-1 and fold letter n onto their bottom rows, counted as one
    probe per bottom row and letter, whichever is fewer; either side
    counts at most N^2 rows).  Unless ``split`` is given, the join
    splits where it walks the fewest candidates, a tie going to the
    shorter prefix; the plan the budget admits is the plan that runs.
    """
    if method == "auto":
        method = "mitm" if (spec.size >= 2 and spec.free_positions() >= 6) else "naive"
    if method == "naive":
        _admit(_solve_cost(spec), budget)
        return _count_naive(spec)
    if method == "mitm":
        if spec.size < 2:
            raise ValueError("meet-in-the-middle needs size >= 2")
        if split is not None and not 1 <= split < spec.size:
            raise ValueError(f"split {split} outside 1..{spec.size - 1}")
        join = _choose_join(spec) if split is None else _join(spec, split, spec.position_counts())
        _admit(join.walked, budget)
        return _count_mitm(spec, join)
    raise ValueError(f"unknown method {method!r}")


def product_histogram(size: int, modulus: Modulus, constraints=None,
                      budget: int | None = None) -> dict[Mat2, int]:
    """Bucket every candidate tuple by its final product.

    Independent full-distribution oracle: summing the histogram recovers
    the number of candidates, and each bucket equals count() on that target.
    Where that walks fewer candidates, the last letter is folded onto the
    products of the others instead: one update per letter and prefix
    product, carrying that product's multiplicity, by
    E(a) @ [[p, q], [r, s]] = [[ap - r, aq - s], [p, q]].  The budget is
    charged the prefix leaves and |SL2(Z/NZ)| updates per last letter.
    """
    probe = SetSpec(size, Mat2(1, 0, 0, 1, modulus), constraints)
    counts, N = probe.position_counts(), modulus.n
    prefix, last = math.prod(counts[:-1]), counts[-1]
    walked = min(prefix * last, prefix + group_order(N) * last)
    _admit(walked, budget)
    values = probe.position_values()
    if walked == prefix * last:
        buckets = _half_products(values, N)
    else:  # the last letter's key parts come from _half_products' tables
        firsts = _LetterRows(values[-1], N, N ** 3, N)
        seconds = _LetterRows(values[-1], N, N * N, 1)
        buckets = {}
        for key, times in _half_products(values[:-1], N).items():
            (p, q), (r, s) = divmod(key // (N * N), N), divmod(key % (N * N), N)
            for leaf in map(add, firsts[p * N + r], seconds[q * N + s]):
                buckets[leaf] = buckets.get(leaf, 0) + times
    return {Mat2.from_key(key, modulus): times for key, times in buckets.items()}


def count_zero_pairs(m: int) -> int:
    """Number of pairs of non-units of Z/2^m Z whose product is zero."""
    if m < 2:
        raise ValueError("need m >= 2")
    n = 1 << m
    evens = range(0, n, 2)
    return sum(1 for x in evens for y in evens if (x * y) % n == 0)


def psi(u: Residue, v: Residue, w: Residue) -> Residue:
    """((vw - 1)(uv - 1) - 1) * v^-1 for a unit v; a unit whenever uv - 1
    is a non-unit.  It equals uvw - u - w, the top-left entry of the
    product of the letters u, v, w, so no inverse is taken."""
    b, mod = v.value, v.modulus
    if math.gcd(b, mod.n) != 1:
        raise NotAUnit(f"{b} is not invertible mod {mod.n}")
    return Residue(u.value * b * w.value - u.value - w.value, mod)


def psi_domain(modulus: Modulus):
    """All (u, v, w) with u, v units and w arbitrary, in ascending order."""
    units = units_of(modulus)
    everything = [Residue(v, modulus) for v in range(modulus.n)]
    return [(u, v, w) for u in units for v in units for w in everything]


def psi_fiber(modulus: Modulus, x: Residue) -> list[tuple[Residue, Residue, Residue]]:
    """The triples (u, v, w) with psi(u, v, w) == x."""
    return [t for t in psi_domain(modulus) if psi(*t) == x]
