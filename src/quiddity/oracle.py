"""Brute-force ground truth: enumerate or count constrained tuple sets.

A SetSpec (defined in ``spec``, with the budget) describes tuples
(a_1, ..., a_n) over Z/NZ whose continuant product equals a fixed target
matrix, with optional per-position constraints (fixed value, unit,
non-unit).  Enumeration is exhaustive and deterministic.  count runs the
plan its budget charges least: the naive walk (solve below), or a
meet-in-the-middle hash join on the midpoint group element at its
cheapest split (bucket and probe), a tie going to the naive walk.

Everything runs on one walk over letter choices, _walk, which carries two
rows through the recurrence (cur, prev) -> (a*cur - prev, cur).  It has
three uses:

* solve (solutions, the naive count): walk the first n - 2 letters; the
  last two are forced by the target and kept only if they land on it and
  are allowed at their positions;
* bucket (_half_products, _product_buckets): count every candidate's
  product, or its top row alone, the meet-in-the-middle prefix.  Every
  walk's last letter expands in C in one place, _leaf_keys, over the
  states it is given; Python steps only through the letters ahead of it,
  and a table row is itself picked in C unless it is short next to the
  ring (_LetterRows).  A histogram may hand _leaf_keys the distinct
  products of the others instead, each expanded once, times its count;
* probe (the meet-in-the-middle suffix): walk backward from the target,
  E(a_{k+1})^-1 ... E(a_n)^-1 @ target, and look each result up among the
  prefix products.  A free junction letter a_{k+1} is not walked: a tuple
  then counts once per prefix and suffix rest whose rows meet, and both
  sides are one row walk, _side, which may fold its outer letter, 1 or n,
  onto the at most N^2 rows before it, each handed to _leaf_keys once.
  Streamed whole, a side expands its outer letter only where that allows
  more values, and otherwise its inner end.  _joins prices every split,
  either fold charged only where it walks fewer candidates, and
  _count_mitm runs the very _Join that count admitted.

This module is the independent oracle for every other count source, so it
deliberately shares no machinery with the dynamic program: it imports only
``spec``, ``sl2`` and ``modring``.
"""

import math
from collections import Counter, namedtuple
from itertools import chain, islice, product, repeat
from operator import add, attrgetter, itemgetter

from . import spec as _spec
from .modring import Modulus, Residue, NotAUnit, units_of
from .sl2 import Mat2, group_order

# The set spec and the budget are defined in ``spec``, so that the DP and
# route.route_count read them without loading the walkers below; they stay
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
    (the last two are forced; one power per distinct count), plus the values
    it lists for every position, so that a short tuple over a huge modulus
    is refused before any list is built."""
    counts = spec.position_counts()
    walked = Counter(counts[:max(spec.size - 2, 0)])
    return math.prod(c ** k for c, k in walked.items()) + sum(counts)


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


_HELD = 1 << 16  # the most row and pick entries one _LetterRows keeps


class _LetterRows(dict):
    """Packed-key parts of one row coordinate after the last letter, per letter.

    The last letter turns a coordinate x of cur and the same coordinate y of
    prev into a*x - y on the new cur row, and moves x to the prev row.  Key
    x*N + y maps to the row [(a*x - y) % N * scale + x * lift for each
    letter a]: both values placed at their digit of the packed matrix key.
    Adding the rows of the two coordinates gives the keys of all of a
    state's leaves without a Python step per letter.  Rows are made on
    first use and kept, picks too, up to _HELD entries: past that a table
    makes them afresh, as at split 1 over Z/pZ no key repeats, until more
    than N^2 misses prove that keys repeat and it keeps every row again.

    A row is picked in C: an itemgetter of the indices a*x % N, made once
    per kept x, reads the turn [(v - y) % N * scale for v in 0..N-1], a
    slice of one base row, and one ``map(add, ...)`` lifts it by x * lift
    where that is not 0.  So a table costs O(|letters|) Python steps per
    pick made and O(1) per row.  A turn lists all N values, so rows of one
    letter, or of fewer than N/4, are built entry by entry instead.
    """

    __slots__ = ("letters", "N", "scale", "lift", "picks", "base", "room", "misses")

    def __init__(self, letters, N, scale, lift):
        super().__init__()
        self.letters, self.N, self.scale, self.lift = letters, N, scale, lift
        picked = len(letters) > 1 and 4 * len(letters) >= N
        self.base = [v % N * scale for v in range(2 * N)] if picked else None  # turns
        self.picks, self.room, self.misses = {}, _HELD // max(len(letters), 1), 0

    def __missing__(self, key):
        N, lift, picks = self.N, self.lift, self.picks
        x, y = divmod(key, N)
        self.misses += 1  # past N^2 misses some key repeats: keep every row
        keep = len(self) + len(picks) < self.room or self.misses > N * N
        if self.base is None:
            row = [(a * x - y) % N * self.scale + x * lift for a in self.letters]
        else:
            pick = picks.get(x) or itemgetter(*[a * x % N for a in self.letters])
            if keep:
                picks[x] = pick
            row = pick(self.base[N - y:2 * N - y])  # turn y
            if lift:
                row = tuple(map(add, row, repeat(x * lift)))
        if keep:
            self[key] = row
        return row


def _leaf_keys(values, N, states, scales, lifts):
    """Stream the packed keys of the leaves of each given state (p, q, r, s),
    cur = (p, q) and prev = (r, s), one stream per state.

    This is the one place a last letter, values[-1], expands: a state's
    leaves are its two coordinates' rows (_LetterRows) added pairwise by
    ``map(add, ...)``, each row picked in C on first use (built entry by
    entry if it is short next to the ring), so picked tables take O(N^2)
    Python steps in all and a leaf none.  Chaining the streams, a caller
    consumes every leaf in one C-level call (Counter, or sum over map) and
    no list of leaves is built; or it weights each by its state's count.
    """
    firsts = _LetterRows(values[-1], N, scales[0], lifts[0])
    seconds = _LetterRows(values[-1], N, scales[1], lifts[1])
    return (map(add, firsts[p * N + r], seconds[q * N + s]) for p, q, r, s in states)


def _side(values, N, m, fold: bool = False):
    """One side's row walk z = e1 E(b_1) ... E(b_j) M as pairs (times, keys),
    each packed key z1*N + z2 standing for ``times`` leaves; ``values``
    lists b_1..b_j and ``m`` the entries of M.  Streamed whole where b_j
    allows no more letters than b_1, it is _walk from M over b_j..b_1, the
    product's top row its cur.  Else b_j expands: a row (u, v) steps to
    (a*u + v, -u), _walk's first coordinate (p, r) = (u, -v) from (1, 0),
    and z = a*(u*m11, u*m12) - (u*m21 - v*m11, u*m22 - v*m12), so each
    row before b_j, walked or folded (each distinct row of the others'
    Counter once, times its count), is the state with cur p*(m11, m12)
    and prev p*(m21, m22) + r*(m11, m12)."""
    if not fold and len(values[0]) >= len(values[-1]):
        keys = _leaf_keys(values[::-1], N, _walk(values[::-1], N, *m), (N, 1), (0, 0))
        return ((1, chain.from_iterable(keys)),)
    if fold:
        rows = _half_products(values[-2::-1], N, top_row=True)
        tops = ((u, -v) for u, v in map(divmod, rows, repeat(N)))
    else:
        tops = map(itemgetter(0, 2), _walk(values, N, 1, 0, 0, 0))
    m11, m12, m21, m22 = m
    states = ((p * m11 % N, p * m12 % N, (p * m21 + r * m11) % N, (p * m22 + r * m12) % N)
              for p, r in tops)
    keys = _leaf_keys(values, N, states, (N, 1), (0, 0))
    return zip(rows.values(), keys) if fold else ((1, chain.from_iterable(keys)),)


def _half_products(values, N, top_row: bool = False):
    """Map packed product key -> number of tuples over the given positions;
    with ``top_row`` the key is the top row alone, _side's walk reversed."""
    if top_row:
        (_, keys), = _side(values[::-1], N, (1, 0, 0, 1))
        return Counter(keys)
    # cur is the top row, so the new cur leads the key and the old cur
    # becomes the bottom row: digits N^3, N^2 and N, 1.
    return Counter(chain.from_iterable(_leaf_keys(
        values, N, _walk(values, N, 1, 0, 0, 1), (N ** 3, N * N), (N, 1))))


_Join = namedtuple("_Join", "split walked free fold fold_last")
_Join.__doc__ = "A split's charge (the candidates walked), free junction, and each side's fold."


def _joins(spec: SetSpec, sizes: list[int]):
    """Every split's join, in order, priced from the allowed-letter counts
    c_i by running products, so all n - 1 take O(n) multiplications.  Each
    side walks all its leaves but a free junction letter's or, beside a
    free junction and only if that is fewer, folds its outer letter (1 or
    n) onto the at most N^2 rows of its others: one step per row and letter."""
    N, first, last = spec.modulus.n, sizes[0], sizes[-1]
    inner, rest = 1, math.prod(sizes[1:])  # c_2..c_k and c_{k+1}..c_n at k = 1
    for split in range(1, len(sizes)):
        free = sizes[split] == N  # only a free letter allows all N values
        beyond = rest // sizes[split]  # c_{k+2}..c_n
        prefix, suffix = first * inner, beyond if free else rest
        # the leaves of letters k+2..n-1, none past the last split
        inner_suffix = beyond // last or 1
        folded = inner + min(N * N, inner) * first
        folded_last = inner_suffix + min(N * N, inner_suffix) * last
        fold, fold_last = free and folded < prefix, free and folded_last < suffix
        yield _Join(split, (folded if fold else prefix) + (folded_last if fold_last else suffix),
                    free, fold, fold_last)
        inner, rest = inner * sizes[split], beyond


def _join(spec: SetSpec, split: int, sizes: list[int]) -> _Join:
    """The join at ``split``, as _joins prices it."""
    return next(islice(_joins(spec, sizes), split - 1, None))


def _bound_bits(sizes: list[int]) -> int:
    """The bit length of 2 isqrt(P // max(c)), P = prod(c_2..c_{n-1}), from
    logarithms, so no product is formed.  A log of counts not all 2-powers is
    first lowered by far more than its rounding error: the length never
    exceeds the true one, and falls short only next to a power of two."""
    counts, top = Counter(sizes[1:-1]), max(sizes)
    if top in counts:  # P // max(c) is then the product of the other counts
        counts[top] -= 1
        top = 1
    log = sum(k * math.log2(c) for c, k in counts.items()) - math.log2(top)
    if any(c & (c - 1) for c in (*+counts, top)):
        log -= (log + 2 * math.log2(top) + 1) / 2 ** 40
    return (math.floor(log) + 2) // 2 + 1 if log >= 0 else 0


def _choose_join(spec: SetSpec, budget=math.inf, naive: bool = False) -> _Join | None:
    """The join that walks the fewest candidates, the shorter prefix on a
    tie (bucketing a leaf costs more than probing one); with ``naive``, None
    if the naive walk (_solve_cost) costs no more.  A join at split k walks
    at least c_2..c_k + c_{k+2}..c_{n-1}, whose product is at least P =
    prod(c_2..c_{n-1}) / max(c), so at least 2 sqrt(P), which is less than
    the naive walk's charge.  Where that bound is past the 4,300 digits
    (14,285 bits) Python prints by default, the power of two below it meets
    the budget before any split or the naive walk is priced: a hopeless
    long tuple fails fast, a shorter refusal is exact."""
    sizes = spec.position_counts()
    bits = _bound_bits(sizes)
    if bits > 14_285:
        _admit(1 << bits - 1, budget, at_least=True)
    join = min(_joins(spec, sizes), key=attrgetter("walked"))
    return None if naive and _solve_cost(spec) <= join.walked else join


def _count_mitm(spec: SetSpec, join: _Join) -> int:
    N = spec.modulus.n
    ta, tb, tc, td = spec.target.entries()
    split, free = join.split, join.free
    # the join never reads a free junction letter, and the budget does not
    # charge its N values, so they are not listed
    junction = split + 1 if free else None
    values = [() if p == junction else allowed_values(spec.modulus, spec.constraint_at(p))
              for p in range(1, spec.size + 1)]
    if not free:
        # Tuples factor as target == suffix_product @ prefix_product, so the
        # prefix product must be E(a_{k+1})^-1 ... E(a_n)^-1 @ target.  Walk
        # the suffix backward from the target with its rows swapped, cur the
        # bottom row at digits N, 1, the old cur leading the key, and look
        # each result up among the prefix products.
        table = _half_products(values[:split], N)
        suffix = values[split:][::-1]
        probes = ((1, chain.from_iterable(_leaf_keys(
            suffix, N, _walk(suffix, N, tc, td, ta, tb), (N, 1), (N ** 3, N * N)))),)
    else:
        # A free junction letter x = a_{k+1} is not walked.  Take a prefix
        # P = E(a_k) ... E(a_1) and a suffix rest S' = E(a_n) ... E(a_{k+2}).
        # E(x) P has P's top row below and x times it, less P's bottom row,
        # above; that top row is unimodular, so E(x) P = S'^-1 T for exactly
        # one x when e1 P = e2 S'^-1 T, and for none otherwise.  As
        # E(a)^-1 = J E(a) J, J = [[0, 1], [1, 0]], both rows are _side's
        # walks: the prefix's over letters k..1 with M = I, the suffix's
        # over letters k+2..n with M = J T, T with its rows swapped.
        if join.fold:
            table = Counter()
            for times, keys in _side(values[split - 1::-1], N, (1, 0, 0, 1), fold=True):
                for key in keys:
                    table[key] += times
        else:
            table = _half_products(values[:split], N, top_row=True)
        suffix = values[split + 1:]
        if not suffix:
            return table[tc * N + td]
        probes = _side(suffix, N, (tc, td, ta, tb), join.fold_last)
    get = table.get
    return sum(times * sum(map(get, keys, repeat(0))) for times, keys in probes)


def count(spec: SetSpec, method: str = "auto", budget: int | None = None,
          split: int | None = None) -> int:
    """Exact size of the set; every method agrees.

    "naive" walks every choice of the first n - 2 letters, the last two
    being forced (charged _solve_cost); "mitm" joins two half enumerations
    on the midpoint product (charged _Join.walked, see _joins) at ``split``
    or else at _choose_join's.  "auto" runs the join at a given split, else
    the plan charged less, a tie going to the naive walk.  So the plan the
    budget admits is the plan that runs."""
    if method not in ("auto", "naive", "mitm"):
        raise ValueError(f"unknown method {method!r}")
    if split is not None and method == "naive":
        raise ValueError("the naive walk takes no split")
    if split is not None and not 1 <= split < spec.size:
        raise ValueError(f"split {split} outside 1..{spec.size - 1}")
    if method == "mitm" and spec.size < 2:
        raise ValueError("meet-in-the-middle needs size >= 2")
    if split is not None:
        join = _join(spec, split, spec.position_counts())
    elif method == "naive" or spec.size < 2:
        join = None
    else:
        join = _choose_join(spec, budget, method == "auto")
    if join is None:
        _admit(_solve_cost(spec), budget)
        return _count_naive(spec)
    _admit(join.walked, budget)
    return _count_mitm(spec, join)


def product_histogram(size: int, modulus: Modulus, constraints=None,
                      budget: int | None = None) -> dict[Mat2, int]:
    """_product_buckets with each product's key read back as its Mat2."""
    buckets = _product_buckets(size, modulus, constraints, budget)
    return {Mat2.from_key(key, modulus): times for key, times in buckets.items()}


def _product_buckets(size: int, modulus: Modulus, constraints=None,
                     budget: int | None = None) -> dict[int, int]:
    """Bucket every candidate tuple by its final product's Mat2.key().

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
        return _half_products(values, N)
    # each prefix product [[p, q], [r, s]] expands at _half_products' digits
    products = _half_products(values[:-1], N)
    states = ((*divmod(key // (N * N), N), *divmod(key % (N * N), N)) for key in products)
    buckets = {}
    for times, leaves in zip(products.values(),
                             _leaf_keys(values, N, states, (N ** 3, N * N), (N, 1))):
        for leaf in leaves:
            buckets[leaf] = buckets.get(leaf, 0) + times
    return buckets


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


def psi_triples(modulus: Modulus):
    """All (u, v, w) with u, v units and w arbitrary, in ascending order,
    one at a time, so that a caller streaming them lists none."""
    units = units_of(modulus)
    return product(units, units, modulus.residues(range(modulus.n)))


def psi_domain(modulus: Modulus):
    """psi_triples(modulus) as a list."""
    return list(psi_triples(modulus))


def psi_fiber(modulus: Modulus, x: Residue) -> list[tuple[Residue, Residue, Residue]]:
    """The triples (u, v, w) with psi(u, v, w) == x."""
    return [t for t in psi_domain(modulus) if psi(*t) == x]
