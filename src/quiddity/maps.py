"""Executable bijections between constrained tuple sets, with a harness
that proves each forward/backward pair reciprocal on enumerated domains.

Every map is made of three moves, each keeping a tuple's product up to
sign: drop or insert a letter +-1 (reduce_one, insert_one and their -1
forms); contract a block of letters into one letter, or expand it back
(_contract, _expand), the pair and unit-triple merges being blocks of two
and three letters; and scale alternately by a unit and its inverse
(_alternate).  Unit insertion is Conway and Coxeter's insertion of a 1,
then such a scaling.  Maps act on explicit tuples of residues, never on
counts, so a broken transcription surfaces as a concrete counterexample
tuple instead of a silently wrong total.  Positions are 1-based in every
docstring to match tuple subscripts a_1..a_n; code indexes are 0-based.

The harness, not the maps, decides membership: it looks each listed domain
member up in the domain's index before mapping it forward, and each image
up in the codomain's.  In its pass over the codomain, a member that was
already an image needs nothing more, so a bijection costs one forward, one
backward and two lookups per member.  Each builder makes its own sets;
shipped_maps alone shares them, and a battery walks each size and target
once: its constrained sets read their members from that walk, and a
member's product is walked once, as the index of the set that lists it is
built.  The unit-triple merges and the fibers share one psi pass.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple

from .modring import Modulus, NotAUnit, Residue, nonunits_of, totient, units_of
from .oracle import psi, solutions
from .sl2 import Mat2, continuant_entries, identity, neg_identity, target_label
from .spec import NONUNIT, SetSpec, UNIT, _admit, _allowed_set, fixed


class DomainViolation(ValueError):
    """Input tuple is outside the map's stated domain."""


# ---------------------------------------------------------------------------
# the moves, and the tables of pooled multiples that alternate scaling reads


class _Scaled(dict):
    """Letter -> the pooled residue of ``unit`` times it, each entry made
    on first use, so a table over a huge modulus holds only what it read."""

    __slots__ = ("unit",)

    def __init__(self, unit: Residue):
        self.unit = unit

    def __missing__(self, a):
        out = self[a] = Residue(self.unit.value * a.value, a.modulus)
        return out


@functools.lru_cache(maxsize=256)
def _tables(u: Residue) -> tuple[_Scaled, _Scaled]:
    """The letter tables of the unit u and of u^-1, made once per unit."""
    return _Scaled(u), _Scaled(u.inverse())


def _alternate(tables, t: tuple) -> tuple:
    """t's letters, the i-th (0-based) read from tables[i % len(tables)].

    Tables first, so that a map is functools.partial(_alternate, tables).
    """
    # a display, so the tuple is made at its size and reuses the short
    # tuples freed before, as in Modulus.residues
    return (*map(dict.__getitem__, itertools.cycle(tables), t),)


def _drop(t: tuple, i: int, e: int) -> tuple:
    """Remove the letter e = +-1 at interior position i; both neighbours
    lose e."""
    n = len(t)
    if not (2 <= i <= n - 1):
        raise DomainViolation(f"position {i} is not interior for size {n}")
    mod = t[0].modulus
    if t[i - 1].value != e % mod.n:
        raise DomainViolation(f"letter at position {i} is {t[i - 1].value}, not {e}")
    return t[: i - 2] + mod.residues([t[i - 2].value - e, t[i].value - e]) + t[i + 1:]


def _insert(t: tuple, i: int, e: int) -> tuple:
    """Insert the letter e = +-1 at position i; both neighbours gain e."""
    n = len(t) + 1
    if not (2 <= i <= n - 1):
        raise DomainViolation(f"position {i} is not interior for size {n}")
    return t[: i - 2] + t[0].modulus.residues([t[i - 2].value + e, e, t[i - 1].value + e]) + t[i:]


def reduce_one(t: tuple, i: int = 2) -> tuple:
    """Remove a letter 1 at interior position i, absorbing it into both
    neighbours (each drops by 1); the product is unchanged."""
    return _drop(t, i, 1)


def insert_one(t: tuple, i: int = 2) -> tuple:
    """Insert a letter 1 at position i, bumping both neighbours by 1."""
    return _insert(t, i, 1)


def reduce_minus_one(t: tuple, i: int = 2) -> tuple:
    """Remove a letter -1 at interior position i (neighbours gain 1); the
    product is negated."""
    return _drop(t, i, -1)


def insert_minus_one(t: tuple, i: int = 2) -> tuple:
    """Insert a letter -1 at position i (neighbours drop by 1); negates the
    product."""
    return _insert(t, i, -1)


def _contract(t: tuple, j: int) -> tuple:
    """Merge positions 2..j+1, of product P = [[alpha, beta], [gamma, delta]],
    into the letter alpha; the tuple's product is unchanged, since
    M(k) P M(h) = M(k') M(alpha) M(h') exactly when h' = h + (1 + beta)/alpha
    and k' = k + (1 - gamma)/alpha.  Refuses exactly when alpha is no unit."""
    if len(t) < j + 2:
        raise DomainViolation(f"size {len(t)} < {j + 2}")
    mod = t[0].modulus
    alpha, beta, gamma, _ = continuant_entries([a.value for a in t[1:j + 1]], mod.n)
    if math.gcd(alpha, mod.n) != 1:
        raise NotAUnit(f"merged letter {alpha} is not invertible mod {mod.n}")
    e = pow(alpha, -1, mod.n)
    return mod.residues([t[0].value + (1 + beta) * e, alpha,
                         t[j + 1].value + (1 - gamma) * e]) + t[j + 2:]


def _expand(t: tuple, letters: list) -> tuple:
    """Inverse of _contract for the split int ``letters``; the second entry
    of t must be the merged letter they make."""
    if len(t) < 3:
        raise DomainViolation(f"size {len(t)} < 3")
    mod = t[0].modulus
    alpha, beta, gamma, _ = continuant_entries(letters, mod.n)
    if t[1].value != alpha:
        raise DomainViolation(f"second entry {t[1].value} != {alpha}")
    if math.gcd(alpha, mod.n) != 1:
        raise NotAUnit(f"merged letter {alpha} is not invertible mod {mod.n}")
    e = pow(alpha, -1, mod.n)
    return mod.residues([t[0].value - (1 + beta) * e, *letters,
                         t[2].value - (1 - gamma) * e]) + t[3:]


def reduce_pair(t: tuple) -> tuple:
    """Merge positions 2 and 3 into the single letter a2*a3 - 1, which
    must be a unit; the product is unchanged."""
    return _contract(t, 2)


def expand_pair(t: tuple, x: Residue, y: Residue) -> tuple:
    """Inverse of reduce_pair for the split letters (x, y)."""
    return _expand(t, [x.value, y.value])


def reduce_quintuple(t: tuple) -> tuple:
    """Merge positions 2..4 = (u, v, w) into the one letter uvw - u - w, which
    is psi(u, v, w) for a unit v and must be a unit; the product is kept."""
    return _contract(t, 3)


def expand_quintuple(t: tuple, u: Residue, v: Residue, w: Residue) -> tuple:
    """Inverse of reduce_quintuple for the split letters (u, v, w)."""
    return _expand(t, [u.value, v.value, w.value])


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
    once, and each member is checked against spec.matches as it goes in:
    a member the enumeration got wrong is left out, so the harness reports
    it, on either side of a map, and a tuple the enumeration missed is
    refused.  That check is the one walk of a member's product; the
    harness's membership checks are lookups in this index.

    shipped_maps may set ``_source`` to the set of all solutions of the
    same size and target.  Such a set walks nothing: its members are the
    source's checked members in the bucket of its fixed letters, and only
    its constrained letters are checked as they are read.
    """

    __slots__ = ("spec", "_members", "_index", "_source", "_buckets")

    def __init__(self, spec: SetSpec):
        self.spec = spec
        self._members = None
        self._index = None
        self._source = None
        self._buckets = None  # fixed positions -> {their letters -> checked members}

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
        if self._buckets is None:
            self._buckets = {}
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


def _psi_triples(modulus: Modulus):
    """psi_domain's triples, in order, one at a time: as a list they raise
    the bijection suite's traced peak, which comes as the battery is built."""
    units = units_of(modulus)
    return itertools.product(units, units, modulus.residues(range(modulus.n)))


@functools.lru_cache(maxsize=4)
def _psi_values(modulus: Modulus) -> tuple:
    """psi of each of _psi_triples as an int: the one psi pass per modulus."""
    return tuple([psi(*t).value for t in _psi_triples(modulus)])


@functools.lru_cache(maxsize=4)
def _psi_buckets(modulus: Modulus) -> dict[int, tuple]:
    """psi value -> the triples of psi_domain with that value, in order."""
    by_value: dict[int, list] = {}
    for t, x in zip(_psi_triples(modulus), _psi_values(modulus)):
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
        self.modulus = modulus
        self.x = x
        self._members = None
        self._index = None

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

    def describe(self) -> str:
        status = "pass" if self.ok else "FAIL"
        extra = "" if self.ok else f" [{self.failure}; counterexample={self.counterexample}]"
        return (f"{status} {self.map_name}: |domain|={self.domain_size}, "
                f"|codomain|={self.codomain_size}{extra}")


def verify_reciprocal(tmap: TupleMap, budget: int | None = None) -> ReciprocityReport:
    """Check that the domain lists only its members, that forward maps them
    into the codomain, that the two directions invert each other pointwise,
    and that the set sizes agree.

    Membership is decided here, never by the maps.  The first pass checks
    that each listed domain member t is in the domain, then maps it
    forward, checks that the image is in the codomain, and maps it back.
    The second walks the codomain: a member s that the first pass produced
    as forward(t) needs nothing more, since t was checked and
    backward(s) = t; any other member is mapped back, its preimage checked
    for domain membership, and mapped forward again.  Any failure is
    reported with a concrete counterexample tuple.
    """
    domain = tmap.domain.members(budget)
    codomain = tmap.codomain.members(budget)

    def fail(reason, witness):
        return ReciprocityReport(tmap.name, False, len(domain), len(codomain),
                                 reason, witness)

    # forward(t) -> t: a dict, not a set, since a set grows to four times
    # its members, which raised the N = 16 battery's peak RSS
    preimages = {}
    for t in domain:
        if not tmap.domain.contains(t):
            return fail("listed domain member is not in the domain", t)
        try:
            image = tmap.forward(t)
        except (DomainViolation, NotAUnit) as err:
            return fail(f"forward raised {err}", t)
        if not tmap.codomain.contains(image):
            return fail("forward image left the codomain", (t, image))
        try:
            back = tmap.backward(image)
        except (DomainViolation, NotAUnit) as err:
            return fail(f"backward raised {err}", image)
        if back != t:
            return fail("backward(forward(t)) != t", (t, image, back))
        preimages[image] = t
    for s in codomain:
        if s in preimages:
            continue
        try:
            pre = tmap.backward(s)
        except (DomainViolation, NotAUnit) as err:
            return fail(f"backward raised {err}", s)
        if not tmap.domain.contains(pre):
            return fail("backward image left the domain", (s, pre))
        try:
            again = tmap.forward(pre)
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
    a, ui = u.value, u.inverse().value
    return TupleMap(
        f"merge-after-unit(n={size}, N={modulus.n}, target={target_label(target)}, u={u.value})",
        dom, cod, reduce_pair, lambda t: _expand(t, [a, ui * (t[1].value + 1)]))


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
    cod = SpecSet(SetSpec(size - 2, target, {2: fixed(psi(u, v, w).value)}))
    return _unit_triple_map(size, modulus, target, u, v, w, cod)


def _unit_triple_map(size: int, modulus: Modulus, target: Mat2,
                     u: Residue, v: Residue, w: Residue, cod: SpecSet) -> TupleMap:
    """merge_unit_triple_bijection onto ``cod``, the set of psi(u, v, w)."""
    dom = SpecSet(SetSpec(size, target, {2: fixed(u.value), 3: fixed(v.value),
                                         4: fixed(w.value)}))
    return TupleMap(
        f"merge-unit-triple(n={size}, N={modulus.n}, target={target_label(target)}, "
        f"u={u.value}, v={v.value}, w={w.value})",
        dom, cod, reduce_quintuple, lambda t: expand_quintuple(t, u, v, w))


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
    """The candidates of shipped_maps' battery, in closed form.

    - The psi pass over phi(N)^2 N triples.
    - The unconstrained walk of each size 3..max_size and target, at what
      oracle.solutions charges it (_solve_cost: N^(size-2) + size N), plus
      size N^(size-2) for the letters of the members it lists: each of its
      N^(size-2) leaves yields at most one tuple.
    - The domains of the unit-triple merges at sizes 5 and 6, 2 targets x
      phi(N)^2 x N distinct specs per size, each priced as if that set were
      walked alone, at _solve_cost (3N + 3 at size 5, 4N + 3 at size 6).
      The battery reads them from the walks above, so that is at least what
      it walks for them.

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
    Those merges are built onto shared codomains directly: no other set of
    the battery equals one of their domains.
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
    for n in range(5, min(6, max_size) + 1):
        for target in targets:
            # The unit-triple merges, most of the battery, skip shared():
            # their domains are all distinct and read the walk directly, and
            # their codomains are the phi(N) sets pinning a_2 to a unit.
            source = walks[n, target.key()]
            cods = {x.value: shared(SetSpec(n - 2, target, {2: fixed(x.value)})) for x in units}
            for (u, v, w), x in zip(_psi_triples(modulus), _psi_values(modulus)):
                tmap = _unit_triple_map(n, modulus, target, u, v, w, cods[x])
                tmap.domain._source = source
                out.append(tmap)
    for n in range(4, max_size + 1, 2):
        for sign in (1, -1):
            for u in units:
                add(unit_insertion_bijection(n, modulus, sign, u))
    fibers = {x: FiberSet(modulus, x) for x in units}
    for x in units:
        name, _, _, forward, backward = fiber_shift_bijection(modulus, x)
        out.append(TupleMap(name, fibers[Residue(1, modulus)], fibers[x], forward, backward))
    return out
