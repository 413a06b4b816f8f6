"""Executable bijections between constrained tuple sets, with a harness
that proves each forward/backward pair reciprocal on enumerated domains.

Every map is made of three moves, each keeping a tuple's product up to
sign: drop or insert a letter +-1 (reduce_one, insert_one and their -1
forms); contract a block of letters into one letter, or expand it back
(_contract, _expand), the pair and unit-triple merges being blocks of two
and three letters; and scale alternately by a unit and its inverse
(_alternate).  Unit insertion is Conway and Coxeter's insertion of a 1,
then such a scaling.  Each move reads the letters it makes from tables of
pooled residues (_Affine), and a block's merge is worked out once
(_block).  Maps act on explicit tuples of residues, never on counts, so a
broken transcription surfaces as a concrete counterexample tuple instead
of a silently wrong total.  Positions are 1-based in every docstring to
match tuple subscripts a_1..a_n; code indexes are 0-based.

The harness, not the maps, decides membership (verify_reciprocal), by
lookups in each set's index, at one forward, one backward and two lookups
per member.  Each builder makes its own sets; shipped_maps alone shares
them, so a battery walks each size and target once and each member's
product once, and its unit-triple merges and fibers share one psi pass.
"""

import functools
import itertools
import math
from collections import namedtuple

from .modring import Modulus, NotAUnit, Residue, nonunits_of, totient, units_of
from .oracle import psi, psi_triples, solutions
from .sl2 import Mat2, continuant_entries, identity, neg_identity, target_label
from .spec import NONUNIT, SetSpec, UNIT, _admit, _allowed_set, fixed


class DomainViolation(ValueError):
    """Input tuple is outside the map's stated domain."""


# ---------------------------------------------------------------------------
# the moves, and the tables of pooled letters that they read


class _Affine(dict):
    """Letter -> the pooled residue of mul * letter + add, made on first use,
    so a table holds only what it read, and serves every modulus."""

    __slots__ = ("mul", "add")

    def __init__(self, mul: int, add: int):
        self.mul, self.add = mul, add

    def __missing__(self, a):
        out = self[a] = Residue(self.mul * a.value + self.add, a.modulus)
        return out


_affine = functools.lru_cache(maxsize=1024)(_Affine)


@functools.lru_cache(maxsize=256)
def _tables(u: Residue) -> tuple[_Affine, _Affine]:
    """The letter tables of the unit u and of u^-1, made once per unit."""
    return _affine(u.value, 0), _affine(u.inverse().value, 0)


def _alternate(tables, t: tuple) -> tuple:
    """t's letters, the i-th (0-based) read from tables[i % len(tables)];
    tables first, so that a map is functools.partial(_alternate, tables)."""
    # a display, so the tuple is made at its size and reuses the short
    # tuples freed before, as in Modulus.residues
    return (*map(dict.__getitem__, tables * len(t), t),)


def _drop(t: tuple, i: int, e: int) -> tuple:
    """Remove the letter e = +-1 at interior position i; both neighbours
    lose e."""
    n = len(t)
    if not (2 <= i <= n - 1):
        raise DomainViolation(f"position {i} is not interior for size {n}")
    if t[i - 1].value != e % t[0].modulus.n:
        raise DomainViolation(f"letter at position {i} is {t[i - 1].value}, not {e}")
    less = _affine(1, -e)
    return t[: i - 2] + (less[t[i - 2]], less[t[i]]) + t[i + 1:]


def _insert(t: tuple, i: int, e: int) -> tuple:
    """Insert the letter e = +-1 at position i; both neighbours gain e."""
    n = len(t) + 1
    if not (2 <= i <= n - 1):
        raise DomainViolation(f"position {i} is not interior for size {n}")
    more = _affine(1, e)  # and e itself, read from the table sending every letter to e
    return t[: i - 2] + (more[t[i - 2]], _affine(0, e)[t[0]], more[t[i - 1]]) + t[i:]


def reduce_one(t: tuple, i: int = 2) -> tuple:
    """Remove a letter 1 at interior position i; the product is unchanged."""
    return _drop(t, i, 1)


def insert_one(t: tuple, i: int = 2) -> tuple:
    """Insert a letter 1 at position i; the product is unchanged."""
    return _insert(t, i, 1)


def reduce_minus_one(t: tuple, i: int = 2) -> tuple:
    """Remove a letter -1 at interior position i; the product is negated."""
    return _drop(t, i, -1)


def insert_minus_one(t: tuple, i: int = 2) -> tuple:
    """Insert a letter -1 at position i; the product is negated."""
    return _insert(t, i, -1)


@functools.lru_cache(maxsize=4096)
def _block(letters: tuple, modulus: Modulus) -> tuple:
    """A block of letters (ints or residues) as _contract merges it: the
    block and its merged letter alpha as residues, then the tables adding
    (1 + beta)/alpha to its left neighbour and (1 - gamma)/alpha to its
    right one and the two undoing them, or None when alpha is no unit."""
    n = modulus.n
    block = modulus.residues([int(a) for a in letters])
    alpha, beta, gamma, _ = continuant_entries([a.value for a in block], n)
    if math.gcd(alpha, n) != 1:
        return block, Residue(alpha, modulus), None
    e = pow(alpha, -1, n)
    left, right = (1 + beta) * e % n, (1 - gamma) * e % n
    return block, Residue(alpha, modulus), tuple(
        _affine(1, shift) for shift in (left, right, n - left, n - right))


def _contract(t: tuple, j: int) -> tuple:
    """Merge positions 2..j+1, of product P = [[alpha, beta], [gamma, delta]],
    into the letter alpha; the tuple's product is unchanged, since
    M(k) P M(h) = M(k') M(alpha) M(h') exactly when h' = h + (1 + beta)/alpha
    and k' = k + (1 - gamma)/alpha.  Refuses exactly when alpha is no unit."""
    if len(t) < j + 2:
        raise DomainViolation(f"size {len(t)} < {j + 2}")
    _, alpha, shifts = _block(t[1:j + 1], t[0].modulus)
    if shifts is None:
        raise NotAUnit(f"merged letter {alpha.value} is not invertible mod {alpha.modulus.n}")
    return (shifts[0][t[0]], alpha, shifts[1][t[j + 1]]) + t[j + 2:]


def _expand(t: tuple, letters) -> tuple:
    """Inverse of _contract for the split ``letters`` (ints or residues);
    the second entry of t must be the merged letter they make."""
    if len(t) < 3:
        raise DomainViolation(f"size {len(t)} < 3")
    block, alpha, shifts = _block(tuple(letters), t[0].modulus)
    if t[1] is not alpha:
        raise DomainViolation(f"second entry {t[1].value} != {alpha.value}")
    if shifts is None:
        raise NotAUnit(f"merged letter {alpha.value} is not invertible mod {alpha.modulus.n}")
    return (shifts[2][t[0]], *block, shifts[3][t[2]]) + t[3:]


def reduce_pair(t: tuple) -> tuple:
    """Merge positions 2 and 3 into the single letter a2*a3 - 1, which
    must be a unit; the product is unchanged."""
    return _contract(t, 2)


def expand_pair(t: tuple, x: Residue, y: Residue) -> tuple:
    """Inverse of reduce_pair for the split letters (x, y)."""
    return _expand(t, (x, y))


def reduce_quintuple(t: tuple) -> tuple:
    """Merge positions 2..4 = (u, v, w) into the one letter uvw - u - w, which
    is psi(u, v, w) for a unit v and must be a unit; the product is kept."""
    return _contract(t, 3)


def expand_quintuple(t: tuple, u: Residue, v: Residue, w: Residue) -> tuple:
    """Inverse of reduce_quintuple for the split letters (u, v, w)."""
    return _expand(t, (u, v, w))


def unit_drop_map(t: tuple) -> tuple:
    """Inverse of unit insertion, for the unit u at position 2: scaling
    alternately by u and u^-1 makes that letter 1, which reduce_one drops."""
    if len(t) % 2 != 0:
        raise DomainViolation(f"size {len(t)} is odd")
    u = t[1]
    if not u.is_unit:
        raise NotAUnit(f"second entry {u.value} is not invertible mod {u.modulus.n}")
    return reduce_one(_alternate(_tables(u), t))


# ---------------------------------------------------------------------------
# enumerable sets and the reciprocity harness


class SpecSet:
    """An enumerable tuple set described by a SetSpec.

    Membership is a lookup in an index of the enumerated members, built
    once, and each member is checked against spec.matches as it goes in,
    the one walk of its product: a member the enumeration got wrong is
    left out, so the harness reports it, on either side of a map, and a
    tuple the enumeration missed is refused.

    shipped_maps may set ``_source`` to the set of all solutions of the
    same size and target.  Such a set walks nothing: its members are the
    source's checked members in the bucket of its fixed letters, and only
    its constrained letters are checked as they are read.
    """

    # _buckets: fixed positions -> {their letters -> checked members}
    __slots__ = ("spec", "_members", "_index", "_source", "_buckets")

    def __init__(self, spec: SetSpec):
        self.spec, self._members, self._index, self._source, self._buckets = (
            spec, None, None, None, None)

    def members(self, budget=None) -> tuple:
        if self._members is None:
            if self._source is None:
                self._members = tuple(solutions(self.spec, budget))
            else:
                self._members = self._source._slice(self.spec, budget)
        return self._members

    def _indexed(self, budget=None) -> frozenset:
        if self._index is None:
            members = self.members(budget)
            if self._source is None:  # sliced members were checked as they were read
                members = filter(self.spec.matches, members)
            self._index = frozenset(members)
        return self._index

    def _slice(self, spec: SetSpec, budget) -> tuple:
        """The checked members whose letters spec allows: those in the
        bucket of spec's fixed letters, each letter checked once more."""
        pinned = [(p - 1, con.value) for p, con in spec.constraints if con.kind == "fixed"]
        positions, letters = zip(*pinned) if pinned else ((), ())
        self._buckets = self._buckets or {}
        buckets = self._buckets.get(positions)
        if buckets is None:
            # keyed by the letters' values, as the spec gives them
            buckets = self._buckets[positions] = {}
            members, index = self.members(budget), self._indexed(budget)
            # a walk lists each tuple once: an index as large means all passed
            checked = members if len(index) == len(members) else filter(index.__contains__,
                                                                        members)
            for m in checked:
                buckets.setdefault(tuple([m[i].value for i in positions]), []).append(m)
        found = buckets.get(letters)
        if not found:
            return ()
        for p, con in spec.constraints:
            i, allowed = p - 1, _allowed_set(spec.modulus, con)
            found = [m for m in found if m[i].value in allowed]
        return tuple(found)

    def contains(self, t) -> bool:
        return t in (self._index or self._indexed())


@functools.lru_cache(maxsize=4)
def _psi_values(modulus: Modulus) -> tuple:
    """psi of each of psi_triples as an int: the one psi pass per modulus."""
    return tuple([psi(*t).value for t in psi_triples(modulus)])


@functools.lru_cache(maxsize=4)
def _psi_buckets(modulus: Modulus) -> dict[int, tuple]:
    """psi value -> the triples of psi_domain with that value, in order."""
    by_value: dict[int, list] = {}
    for t, x in zip(psi_triples(modulus), _psi_values(modulus)):
        by_value.setdefault(x, []).append(t)
    return {x: tuple(triples) for x, triples in by_value.items()}


class FiberSet:
    """The psi fiber over a unit x: triples (u, v, w) with psi = x.

    Members are read from the one psi pass over this modulus (_psi_buckets).
    Membership is a lookup in their index, built once, each member checked
    by the predicate as it goes in, as SpecSet does.
    """

    __slots__ = ("modulus", "x", "_members", "_index")

    def __init__(self, modulus: Modulus, x: Residue):
        self.modulus, self.x, self._members, self._index = modulus, x, None, None

    def members(self, budget=None) -> tuple:
        if self._members is None:
            # the psi pass walks phi(N)^2 N triples, charged before it runs
            _admit(totient(self.modulus.n) ** 2 * self.modulus.n, budget)
            self._members = _psi_buckets(self.modulus).get(self.x.value, ())
        return self._members

    def _matches(self, t) -> bool:
        return (len(t) == 3 and t[0].is_unit and t[1].is_unit
                and psi(t[0], t[1], t[2]) is self.x)

    def _indexed(self) -> frozenset:
        if self._index is None:
            self._index = frozenset(filter(self._matches, self.members()))
        return self._index

    def contains(self, t) -> bool:
        return t in (self._index or self._indexed())


class ProductSet:
    """Cartesian product of component sets; members are tuples of members."""

    def __init__(self, components):
        self.components = tuple(components)
        self._members = None

    def members(self, budget=None) -> tuple:
        if self._members is None:
            self._members = tuple(itertools.product(*(c.members(budget) for c in self.components)))
        return self._members

    def contains(self, t) -> bool:
        return (len(t) == len(self.components)
                and all(c.contains(part) for c, part in zip(self.components, t)))


TupleMap = namedtuple("TupleMap", "name domain codomain forward backward")


class ReciprocityReport(namedtuple("ReciprocityReport", "map_name ok domain_size codomain_size "
                                   "failure counterexample", defaults=(None, None))):
    __slots__ = ()

    @property
    def detail(self) -> str:
        """The verdict's one text: the domain's size, or the failure and its tuple."""
        return (f"|domain|={self.domain_size}" if self.ok
                else f"{self.failure}; counterexample={self.counterexample}")

    def describe(self) -> str:
        return (f"{'pass' if self.ok else 'FAIL'} {self.map_name}: |domain|={self.domain_size}, "
                f"|codomain|={self.codomain_size}" + ("" if self.ok else f" [{self.detail}]"))


def verify_reciprocal(tmap: TupleMap, budget: int | None = None) -> ReciprocityReport:
    """Check that the domain lists only its members, that forward maps them
    into the codomain, that the two directions invert each other pointwise,
    and that the set sizes agree.

    Membership is decided here, never by the maps.  The first pass checks
    each listed domain member t, maps it forward, checks the image and maps
    it back.  The second walks the codomain: a member that the first pass
    made as forward(t) needs nothing more; any other is mapped back, its
    preimage checked and mapped forward again.  Any failure is reported
    with a concrete counterexample tuple.
    """
    domain, codomain = tmap.domain.members(budget), tmap.codomain.members(budget)
    in_domain, in_codomain = tmap.domain.contains, tmap.codomain.contains
    forward, backward = tmap.forward, tmap.backward

    def fail(reason, witness):
        return ReciprocityReport(tmap.name, False, len(domain), len(codomain), reason, witness)

    # forward(t) -> t: a dict, not a set, since a set grows to four times
    # its members, which raised the N = 16 battery's peak RSS
    preimages = {}
    for t in domain:
        if not in_domain(t):
            return fail("listed domain member is not in the domain", t)
        try:
            image = forward(t)
        except (DomainViolation, NotAUnit) as err:
            return fail(f"forward raised {err}", t)
        if not in_codomain(image):
            return fail("forward image left the codomain", (t, image))
        try:
            back = backward(image)
        except (DomainViolation, NotAUnit) as err:
            return fail(f"backward raised {err}", image)
        if back != t:
            return fail("backward(forward(t)) != t", (t, image, back))
        preimages[image] = t
    for s in codomain:
        if s in preimages:
            continue
        try:
            pre = backward(s)
        except (DomainViolation, NotAUnit) as err:
            return fail(f"backward raised {err}", s)
        if not in_domain(pre):
            return fail("backward image left the domain", (s, pre))
        try:
            again = forward(pre)
        except (DomainViolation, NotAUnit) as err:
            return fail(f"forward raised {err}", pre)
        if again != s:
            return fail("forward(backward(s)) != s", (s, pre))
    if len(domain) != len(codomain):
        return fail("set sizes differ", None)
    return ReciprocityReport(tmap.name, True, len(domain), len(codomain))


# ---------------------------------------------------------------------------
# shipped bijections


def negation_bijection(size: int, modulus: Modulus) -> TupleMap:
    """Entrywise negation between the +Id and -Id solution sets (odd size)."""
    negate = functools.partial(_alternate, _tables(Residue(-1, modulus))[:1])
    return TupleMap(f"negation(n={size}, N={modulus.n})",
                    SpecSet(SetSpec(size, identity(modulus))),
                    SpecSet(SetSpec(size, neg_identity(modulus))), negate, negate)


def scaling_bijection(size: int, modulus: Modulus, sign: int, lam: Residue) -> TupleMap:
    """Alternate scaling by a unit, a self-bijection of an even-size
    solution set: odd positions are scaled by lam, even ones by lam^-1."""
    dom = SpecSet(SetSpec(size, identity(modulus) if sign == 1 else neg_identity(modulus)))
    tables = _tables(lam)
    return TupleMap(
        f"scaling(n={size}, N={modulus.n}, sign={'+' if sign == 1 else '-'}, lam={lam.value})",
        dom, dom, functools.partial(_alternate, tables),
        functools.partial(_alternate, tables[::-1]))


def drop_minus_one_bijection(size: int, modulus: Modulus, target: Mat2) -> TupleMap:
    """Tuples with second entry -1 and product B, onto size-1 smaller
    tuples with product -B."""
    dom = SpecSet(SetSpec(size, target, {2: fixed(-1)}))
    cod = SpecSet(SetSpec(size - 1, -target))
    return TupleMap(
        f"drop-minus-one(n={size}, N={modulus.n}, target={target_label(target)})",
        dom, cod, reduce_minus_one, insert_minus_one)


def merge_after_unit_bijection(size: int, modulus: Modulus, target: Mat2,
                               u: Residue) -> TupleMap:
    """Second entry fixed to the unit u, third entry a free non-unit,
    onto size-1 smaller tuples with a free unit second entry.

    The merged letter u*a3 - 1 is a unit exactly because a3 is not, and
    the backward direction recovers a3 = u^-1 (merged + 1).
    """
    dom = SpecSet(SetSpec(size, target, {2: fixed(int(u)), 3: NONUNIT}))
    cod = SpecSet(SetSpec(size - 1, target, {2: UNIT}))
    ui = u.inverse().value
    split = _affine(ui, ui)  # merged -> a3 = u^-1 (merged + 1)
    return TupleMap(
        f"merge-after-unit(n={size}, N={modulus.n}, target={target_label(target)}, u={u.value})",
        dom, cod, reduce_pair, lambda t: _expand(t, (u, split[t[1]])))


def merge_fixed_pair_bijection(size: int, modulus: Modulus, target: Mat2,
                               x: Residue, y: Residue) -> TupleMap:
    """Second and third entries pinned to (x, y) with x*y - 1 a unit, onto
    size-1 smaller tuples with second entry pinned to x*y - 1."""
    merged = x * y - 1
    if not merged.is_unit:
        raise NotAUnit(f"{x.value}*{y.value} - 1 is not invertible mod {modulus.n}")
    dom = SpecSet(SetSpec(size, target, {2: fixed(int(x)), 3: fixed(int(y))}))
    cod = SpecSet(SetSpec(size - 1, target, {2: fixed(int(merged))}))
    return TupleMap(
        f"merge-fixed-pair(n={size}, N={modulus.n}, target={target_label(target)}, "
        f"x={x.value}, y={y.value})",
        dom, cod, reduce_pair, lambda t: expand_pair(t, x, y))


def merge_unit_triple_bijection(size: int, modulus: Modulus, target: Mat2,
                                u: Residue, v: Residue, w: Residue) -> TupleMap:
    """Entries 2..4 pinned to (u, v, w) with u, v units, onto size-2
    smaller tuples with second entry pinned to the unit psi(u, v, w)."""
    tail, pins, backward = _unit_triple(u, v, w)
    return TupleMap(_unit_triple_head(size, modulus, target) + tail,
                    SpecSet(SetSpec(size, target, pins)),
                    SpecSet(SetSpec(size - 2, target, {2: fixed(psi(u, v, w).value)})),
                    reduce_quintuple, backward)


def _unit_triple_head(size: int, modulus: Modulus, target: Mat2) -> str:
    return f"merge-unit-triple(n={size}, N={modulus.n}, target={target_label(target)}, "


def _unit_triple(u: Residue, v: Residue, w: Residue) -> tuple:
    """What a merge of (u, v, w) keeps at every size and target: its name's
    tail, its domain's pins of letters 2..4, and its backward map."""
    return (f"u={u.value}, v={v.value}, w={w.value})",
            ((2, fixed(u.value)), (3, fixed(v.value)), (4, fixed(w.value))),
            functools.partial(expand_quintuple, u=u, v=v, w=w))


def unit_insertion_bijection(size: int, modulus: Modulus, sign: int, u: Residue) -> TupleMap:
    """Odd-size solutions onto the even-size solutions whose second entry
    is the unit u (same sign): insert_one puts a 1 at position 2, which
    scaling alternately by u^-1 (odd positions) and u (even) turns into u."""
    target = identity(modulus) if sign == 1 else neg_identity(modulus)
    swapped = _tables(u)[::-1]
    return TupleMap(
        f"unit-insertion(n={size}, N={modulus.n}, sign={'+' if sign == 1 else '-'}, u={u.value})",
        SpecSet(SetSpec(size - 1, target)), SpecSet(SetSpec(size, target, {2: fixed(int(u))})),
        lambda t: _alternate(swapped, insert_one(t)), unit_drop_map)


def fiber_shift_bijection(modulus: Modulus, x: Residue) -> TupleMap:
    """The psi fiber over 1 onto the fiber over x, via (u, v, w) ->
    (xu, v x^-1, wx)."""
    tables = _tables(x)
    return TupleMap(f"fiber-shift(N={modulus.n}, x={x.value})",
                    FiberSet(modulus, Residue(1, modulus)), FiberSet(modulus, x),
                    functools.partial(_alternate, tables),
                    functools.partial(_alternate, tables[::-1]))


def _require_two_power(modulus: Modulus):
    if modulus.two_adic is None:
        raise ValueError("shipped maps are defined over 2-power moduli N = 2^m "
                         f"with m >= 2, got N = {modulus.n}")


def battery_cost(modulus: Modulus, max_size: int) -> int:
    """The candidates of shipped_maps' battery, in closed form: the psi
    pass over phi(N)^2 N triples; the unconstrained walk of each size
    3..max_size and target, at oracle.solutions' charge (_solve_cost:
    N^(size-2) + size N), plus size N^(size-2) for the letters of the
    members it lists, one tuple at most per leaf; and the unit-triple
    domains at sizes 5 and 6, 2 targets x phi(N)^2 x N specs per size, each
    at _solve_cost (3N + 3 at size 5, 4N + 3 at size 6), at least what the
    battery walks for them though it reads them from the walks above.

    Admitted before the battery is built, it refuses N = 128 (and N = 4
    beyond size 12) at the default budget without building any map.
    """
    _require_two_power(modulus)
    n = modulus.n
    triples = totient(n) ** 2 * n
    merges = sum(2 * triples * ((size - 2) * n + 3) for size in (5, 6) if size <= max_size)
    # sum over sizes 3..max_size of (size + 1) N^(size-2) + size N, per
    # target, as sums of k N^k and N^k over k = 1..K: a loop would square
    # the cost of the big powers at a large --max-size
    k = max_size - 2
    if k < 1:
        return triples + merges
    powers = (n ** (k + 1) - n) // (n - 1)
    weighted = (k * n ** (k + 2) - (k + 1) * n ** (k + 1) + n) // (n - 1) ** 2
    walks = weighted + 3 * powers + n * (max_size * (max_size + 1) // 2 - 3)
    return triples + merges + 2 * walks


def shipped_maps(modulus: Modulus, max_size: int) -> list[TupleMap]:
    """The full battery of bijections to verify for one 2-power modulus.

    Each map comes from its public builder, rebuilt onto the battery's one
    SpecSet of each spec, and a constrained set reads its members from the
    unconstrained set of its size and target.  So verifying the whole list
    walks each member's product once, as its (size, target) set is
    indexed.  The fiber shifts all start from one fiber over 1; the fibers
    and the unit-triple merges, 2 phi(N)^2 N per size, read one psi pass.
    """
    _require_two_power(modulus)
    units = units_of(modulus)
    nonunits = nonunits_of(modulus)
    targets = (identity(modulus), neg_identity(modulus))
    sets: dict[SetSpec, SpecSet] = {}
    walks: dict[tuple, SpecSet] = {}  # (size, target key) -> its unconstrained set
    out: list[TupleMap] = []

    def shared(spec: SetSpec) -> SpecSet:
        found = sets.get(spec)
        if found is None:
            found = sets[spec] = SpecSet(spec)
            key = (spec.size, spec.target.key())
            if spec.constraints:
                # the negation and scaling maps, added first, hold every
                # unconstrained (size, target) that a constrained set needs
                found._source = walks[key]
            else:
                walks[key] = found
        return found

    def add(tmap: TupleMap):
        # a fresh TupleMap, not _replace: that one builds its tuple from an
        # iterator and shrinks it, which raised the N = 16 battery's peak RSS
        name, dom, cod, forward, backward = tmap
        out.append(TupleMap(name, shared(dom.spec), shared(cod.spec), forward, backward))

    for n in range(3, max_size + 1, 2):
        add(negation_bijection(n, modulus))
    for n in range(4, max_size + 1, 2):
        for sign in (1, -1):
            for lam in units:
                add(scaling_bijection(n, modulus, sign, lam))
    for n in range(4, max_size + 1):
        for target in targets:
            add(drop_minus_one_bijection(n, modulus, target))
            for u in units:
                add(merge_after_unit_bijection(n, modulus, target, u))
    for n in range(6, max_size + 1, 2):
        for target in targets:
            for x in nonunits[:2]:
                for y in (nonunits[1], units[1]):
                    add(merge_fixed_pair_bijection(n, modulus, target, x, y))
    # The unit-triple merges, most of the battery, skip shared(): no other set
    # equals a domain of theirs.  What no size or target changes is made once.
    sizes = range(5, min(6, max_size) + 1)
    triples = [(_unit_triple(u, v, w), x) for (u, v, w), x in
               zip(psi_triples(modulus), _psi_values(modulus))] if sizes else []
    for n in sizes:
        for target in targets:
            head, source = _unit_triple_head(n, modulus, target), walks[n, target.key()]
            cods = {x.value: shared(SetSpec(n - 2, target, {2: fixed(x.value)})) for x in units}
            for (tail, pins, backward), x in triples:
                dom = SpecSet(SetSpec(n, target, pins))
                dom._source = source
                out.append(TupleMap(head + tail, dom, cods[x], reduce_quintuple, backward))
    for n in range(4, max_size + 1, 2):
        for sign in (1, -1):
            for u in units:
                add(unit_insertion_bijection(n, modulus, sign, u))
    fibers = {x: FiberSet(modulus, x) for x in units}
    for x in units:
        name, _, _, forward, backward = fiber_shift_bijection(modulus, x)
        out.append(TupleMap(name, fibers[Residue(1, modulus)], fibers[x], forward, backward))
    return out
