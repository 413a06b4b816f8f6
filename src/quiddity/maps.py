"""Executable bijections between constrained tuple sets, with a harness
that proves each forward/backward pair reciprocal on enumerated domains.

Maps operate on explicit tuples of residues, never on counts, so a broken
transcription surfaces as a concrete counterexample tuple instead of a
silently wrong total; inside, each computes on the letters' int values or
reads each letter's image from a table of its unit's multiples.
Positions are 1-based in every docstring to match tuple subscripts
a_1..a_n; code indexes are 0-based.

The harness runs forward and backward once per domain member; in its pass
over the codomain, a member that was already an image needs only its
preimage's domain membership checked, so a bijection costs one forward and
one backward per member.  Each builder makes its own sets; shipped_maps
alone shares them, and a battery walks each size and target once: its
constrained sets read their members from that walk.  All psi fibers over
one modulus come from one psi pass.

A member's product is walked once, as the index of the set that lists it
is built.  The negation, scaling, unit-insertion and fiber-shift maps of
the builders guard by membership in their input set's index, where the
free maps negate_map, scale_map, unit_insert_map and fiber_shift_map walk
the product or compute psi.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, NamedTuple

from .modring import Modulus, NotAUnit, Residue, nonunits_of, totient, units_of
from .oracle import psi, psi_domain, solutions
from .sl2 import Mat2, continuant_entries, identity, neg_identity, target_name
from .spec import NONUNIT, SetSpec, UNIT, _admit, _allowed_set, fixed


class DomainViolation(ValueError):
    """Input tuple is outside the map's stated domain."""


def _product_sign(values, n: int) -> int:
    """1 or -1 when the letters' product is +Id or -Id, else 0 (1 when N = 2,
    where the two agree)."""
    a, b, c, d = continuant_entries(values, n)
    if b or c or a != d:
        return 0
    return 1 if a == 1 else -1 if a == n - 1 else 0


# ---------------------------------------------------------------------------
# elementwise operations: each maps its letters through tables of the
# pooled residues of their multiples (_tables), one table per unit


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


def _alternate(t: tuple, tables) -> tuple:
    """t's letters, the i-th (0-based) read from tables[i % len(tables)]."""
    # a display, so the tuple is made at its size and reuses the short
    # tuples freed before, as in Modulus.residues
    return (*map(dict.__getitem__, itertools.cycle(tables), t),)


def _insert_unit(t: tuple, tables) -> tuple:
    """unit_insert_map's image of t, for tables = _tables(u)."""
    times, over = tables
    return (over[t[0] + 1], times.unit, over[t[1] + 1],
            *map(dict.__getitem__, itertools.cycle(tables), t[2:]))


def negate_map(t: tuple) -> tuple:
    """Negate every entry; sends odd-size solutions of +Id to -Id."""
    if len(t) % 2 != 1:
        raise DomainViolation(f"size {len(t)} is even")
    mod = t[0].modulus
    if _product_sign([a.value for a in t], mod.n) != 1:
        raise DomainViolation(f"product of {t} is not the identity")
    return _alternate(t, _tables(Residue(-1, mod))[:1])


def scale_map(t: tuple, lam: Residue) -> tuple:
    """Scale odd positions by lam and even positions by lam^-1.

    Keeps even-size tuples inside their +-Id solution set.
    """
    if not (len(t) % 2 == 0 and len(t) >= 4):
        raise DomainViolation(f"size {len(t)} is not even >= 4")
    if not lam.is_unit:
        raise NotAUnit(f"{lam.value} is not invertible mod {lam.modulus.n}")
    if not _product_sign([a.value for a in t], t[0].modulus.n):
        raise DomainViolation(f"product of {t} is not +-Id")
    return _alternate(t, _tables(lam))


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


def reduce_pair(t: tuple) -> tuple:
    """Merge positions 2 and 3 into the single letter a2*a3 - 1.

    Needs a2*a3 - 1 invertible; positions 1 and 4 pick up correction
    terms and the product is unchanged.  Size drops by one.
    """
    if len(t) < 4:
        raise DomainViolation(f"size {len(t)} < 4")
    mod = t[0].modulus
    h, x, y, k = (a.value for a in t[:4])
    merged = (x * y - 1) % mod.n
    if math.gcd(merged, mod.n) != 1:
        raise NotAUnit(f"{x}*{y} - 1 is not invertible mod {mod.n}")
    e = pow(merged, -1, mod.n)
    return mod.residues([h + (1 - y) * e, merged, k + (1 - x) * e]) + t[4:]


def expand_pair(t: tuple, x: Residue, y: Residue) -> tuple:
    """Inverse of reduce_pair for the split letters (x, y); the second
    entry of t must equal x*y - 1."""
    if len(t) < 3:
        raise DomainViolation(f"size {len(t)} < 3")
    merged = x * y - 1
    if t[1] is not merged:
        raise DomainViolation(f"second entry {t[1].value} != {merged.value}")
    a, b, e = x.value, y.value, merged.inverse().value
    return x.modulus.residues([t[0].value - (1 - b) * e, a, b, t[2].value - (1 - a) * e]) + t[3:]


def reduce_quintuple(t: tuple) -> tuple:
    """Collapse positions 2..4 = (u, v, w) into the single unit letter
    psi(u, v, w); size drops by two and the product is unchanged.

    Needs v and psi(u, v, w) invertible, which always holds when u and v
    are both units.
    """
    if len(t) < 5:
        raise DomainViolation(f"size {len(t)} < 5")
    x = psi(t[1], t[2], t[3])
    if not x.is_unit:
        raise NotAUnit(f"psi value {x.value} is not invertible mod {x.modulus.n}")
    h, u, v, w, k = (a.value for a in t[:5])
    xi = pow(x.value, -1, x.modulus.n)
    return x.modulus.residues([h - (v * w - 2) * xi, x.value, k - (u * v - 2) * xi]) + t[5:]


def expand_quintuple(t: tuple, u: Residue, v: Residue, w: Residue) -> tuple:
    """Inverse of reduce_quintuple for the split letters (u, v, w)."""
    if len(t) < 3:
        raise DomainViolation(f"size {len(t)} < 3")
    x = psi(u, v, w)
    if t[1] is not x:
        raise DomainViolation(f"second entry {t[1].value} != psi = {x.value}")
    a, b, c, xi = u.value, v.value, w.value, x.inverse().value
    return x.modulus.residues([t[0].value + (b * c - 2) * xi, a, b, c,
                               t[2].value + (a * b - 2) * xi]) + t[3:]


def unit_insert_map(t: tuple, u: Residue) -> tuple:
    """Send an odd-size +-Id solution to the even-size one whose second
    entry is the unit u.

    Composition of inserting a 1 at position 2 with alternate scaling by
    u^-1: the first and third outputs are (a_1+1)u^-1 and (a_2+1)u^-1,
    and the tail alternates factors u (even positions) and u^-1 (odd).
    """
    if len(t) % 2 != 1:
        raise DomainViolation(f"size {len(t)} is even")
    if not u.is_unit:
        raise NotAUnit(f"{u.value} is not invertible mod {u.modulus.n}")
    if not _product_sign([a.value for a in t], u.modulus.n):
        raise DomainViolation(f"product of {t} is not +-Id")
    return _insert_unit(t, _tables(u))


def unit_drop_map(t: tuple) -> tuple:
    """Inverse of unit_insert_map; the unit is read from position 2."""
    if len(t) % 2 != 0:
        raise DomainViolation(f"size {len(t)} is odd")
    u = t[1]
    if not u.is_unit:
        raise NotAUnit(f"second entry {u.value} is not invertible mod {u.modulus.n}")
    times, over = _tables(u)
    return (times[t[0]] - 1, times[t[2]] - 1,
            *map(dict.__getitem__, itertools.cycle((over, times)), t[3:]))


def fiber_shift_map(triple: tuple, x: Residue) -> tuple:
    """Carry a psi-fiber-of-1 triple (u, v, w) to the fiber of x via
    (xu, v x^-1, wx)."""
    u, v, w = triple
    if psi(u, v, w).value != 1:
        raise DomainViolation(f"psi{tuple(a.value for a in triple)} != 1")
    if not x.is_unit:
        raise NotAUnit(f"{x.value} is not invertible mod {x.modulus.n}")
    return _alternate(triple, _tables(x))


def fiber_unshift_map(triple: tuple, x: Residue) -> tuple:
    """Inverse of fiber_shift_map: from the fiber of x back to the fiber of 1."""
    u, v, w = triple
    if psi(u, v, w) is not x:
        raise DomainViolation(f"psi{tuple(a.value for a in triple)} != {x.value}")
    return _alternate(triple, _tables(x)[::-1])


def _guarded(s, apply, tables) -> Callable:
    """apply(t, tables) for the members t of the set s; DomainViolation for
    any other t.  The builders' maps guard so: a lookup in s's index, where
    the free maps walk the product."""

    def call(t):
        if t in (s._index or s._indexed()):  # s.contains(t), without the call
            return apply(t, tables)
        raise DomainViolation(f"{t} is not a member of the map's input set")

    return call


# ---------------------------------------------------------------------------
# enumerable sets and the reciprocity harness


def _target_label(target: Mat2) -> str:
    return target_name(target) or f"key{target.key()}"


class SpecSet:
    """An enumerable tuple set described by a SetSpec.

    Membership is a lookup in an index of the enumerated members, built
    once, and each member is checked against spec.matches as it goes in:
    a member the enumeration got wrong is left out, so the harness reports
    it, and a tuple the enumeration missed is refused.  That check is the
    one walk of a member's product: the maps built on a SpecSet guard by
    its index.

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


@functools.lru_cache(maxsize=4)
def _psi_buckets(modulus: Modulus) -> dict[int, tuple]:
    """psi value -> the triples of psi_domain with that value, in order: one
    psi pass per modulus, read by every fiber over it."""
    by_value: dict[int, list] = {}
    for t in psi_domain(modulus):
        by_value.setdefault(psi(*t).value, []).append(t)
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


class TupleMap(NamedTuple):
    name: str
    domain: object
    codomain: object
    forward: Callable
    backward: Callable


class ReciprocityReport(NamedTuple):
    map_name: str
    ok: bool
    domain_size: int
    codomain_size: int
    failure: str | None = None
    counterexample: tuple | None = None

    def describe(self) -> str:
        status = "pass" if self.ok else "FAIL"
        extra = "" if self.ok else f" [{self.failure}; counterexample={self.counterexample}]"
        return (f"{status} {self.map_name}: |domain|={self.domain_size}, "
                f"|codomain|={self.codomain_size}{extra}")


def verify_reciprocal(tmap: TupleMap, budget: int | None = None) -> ReciprocityReport:
    """Check that forward maps the domain into the codomain, that the two
    directions invert each other pointwise, and that the set sizes agree.

    The first pass maps every domain member t forward and back.  The second
    walks the codomain: a member s that the first pass produced as
    forward(t) already has backward(s) = t and forward(t) = s, so only
    domain.contains(t) is left to check; any other member is mapped back
    and forward again.  Any failure is reported with a concrete
    counterexample tuple.
    """
    domain = tmap.domain.members(budget)
    codomain = tmap.codomain.members(budget)

    def fail(reason, witness):
        return ReciprocityReport(tmap.name, False, len(domain), len(codomain),
                                 reason, witness)

    preimages = {}  # forward(t) -> t, for every domain member t
    for t in domain:
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
        pre = preimages.get(s)
        is_image = pre is not None
        if not is_image:
            try:
                pre = tmap.backward(s)
            except (DomainViolation, NotAUnit) as err:
                return fail(f"backward raised {err}", s)
        if not tmap.domain.contains(pre):
            return fail("backward image left the domain", (s, pre))
        if is_image:
            continue
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
    return _negation_map(size, modulus, SpecSet)


def _negation_map(size: int, modulus: Modulus, sets: Callable) -> TupleMap:
    """negation_bijection between the sets ``sets`` gives for its specs."""
    dom = sets(SetSpec(size, identity(modulus)))
    negations = _tables(Residue(-1, modulus))[:1]
    return TupleMap(f"negation(n={size}, N={modulus.n})", dom,
                    sets(SetSpec(size, neg_identity(modulus))),
                    _guarded(dom, _alternate, negations),
                    lambda t: _alternate(t, negations))


def scaling_bijection(size: int, modulus: Modulus, sign: int, lam: Residue) -> TupleMap:
    """Alternate scaling by a unit, a self-bijection of an even-size
    solution set."""
    return _scaling_map(size, modulus, sign, lam, SpecSet)


def _scaling_map(size: int, modulus: Modulus, sign: int, lam: Residue,
                 sets: Callable) -> TupleMap:
    """scaling_bijection on the set ``sets`` gives for its spec."""
    dom = sets(SetSpec(size, identity(modulus) if sign == 1 else neg_identity(modulus)))
    tables = _tables(lam)
    return TupleMap(
        f"scaling(n={size}, N={modulus.n}, sign={'+' if sign == 1 else '-'}, lam={lam.value})",
        dom, dom, _guarded(dom, _alternate, tables), _guarded(dom, _alternate, tables[::-1]))


def drop_minus_one_bijection(size: int, modulus: Modulus, target: Mat2) -> TupleMap:
    """Tuples with second entry -1 and product B, onto size-1 smaller
    tuples with product -B."""
    dom = SpecSet(SetSpec(size, target, {2: fixed(-1)}))
    cod = SpecSet(SetSpec(size - 1, -target))
    return TupleMap(
        f"drop-minus-one(n={size}, N={modulus.n}, target={_target_label(target)})",
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

    def backward(t):
        return expand_pair(t, u, Residue(ui * (t[1].value + 1), modulus))

    return TupleMap(
        f"merge-after-unit(n={size}, N={modulus.n}, target={_target_label(target)}, u={u.value})",
        dom, cod, reduce_pair, backward)


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
        f"merge-fixed-pair(n={size}, N={modulus.n}, target={_target_label(target)}, "
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
        f"merge-unit-triple(n={size}, N={modulus.n}, target={_target_label(target)}, "
        f"u={u.value}, v={v.value}, w={w.value})",
        dom, cod, reduce_quintuple, lambda t: expand_quintuple(t, u, v, w))


def unit_insertion_bijection(size: int, modulus: Modulus, sign: int, u: Residue) -> TupleMap:
    """Odd-size solutions onto the even-size solutions whose second entry
    is the unit u (same sign)."""
    return _unit_insertion_map(size, modulus, sign, u, SpecSet)


def _unit_insertion_map(size: int, modulus: Modulus, sign: int, u: Residue,
                        sets: Callable) -> TupleMap:
    """unit_insertion_bijection between the sets ``sets`` gives for its specs."""
    target = identity(modulus) if sign == 1 else neg_identity(modulus)
    dom = sets(SetSpec(size - 1, target))
    return TupleMap(
        f"unit-insertion(n={size}, N={modulus.n}, sign={'+' if sign == 1 else '-'}, u={u.value})",
        dom, sets(SetSpec(size, target, {2: fixed(int(u))})),
        _guarded(dom, _insert_unit, _tables(u)), unit_drop_map)


def fiber_shift_bijection(modulus: Modulus, x: Residue) -> TupleMap:
    """The psi fiber over 1 onto the fiber over x."""
    return _fiber_map(modulus, x, FiberSet(modulus, Residue(1, modulus)), FiberSet(modulus, x))


def _fiber_map(modulus: Modulus, x: Residue, one: FiberSet, fiber: FiberSet) -> TupleMap:
    """fiber_shift_bijection from ``one``, the fiber over 1, onto ``fiber``."""
    tables = _tables(x)
    return TupleMap(f"fiber-shift(N={modulus.n}, x={x.value})", one, fiber,
                    _guarded(one, _alternate, tables), _guarded(fiber, _alternate, tables[::-1]))


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

    Each map is built on the battery's one SpecSet of each spec, and a
    constrained set reads its members from the unconstrained set of its
    size and target.  So verifying the whole list walks each member's
    product once, as its (size, target) set is indexed: the negation,
    scaling and unit-insertion maps guard by those indexes, and the fiber
    shifts by the fibers', all from the one psi pass over the modulus and
    all starting from one fiber over 1.  The unit-triple merges,
    2 phi(N)^2 N per size, are built onto shared codomains directly: no
    other set of the battery equals one of their domains.
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
        out.append(_negation_map(n, modulus, shared))
    for n in range(4, max_size + 1, 2):
        for sign in (1, -1):
            for lam in units:
                out.append(_scaling_map(n, modulus, sign, lam, shared))
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
    letters = [Residue(w, modulus) for w in range(modulus.n)]
    # each unit triple's psi, computed once for its four merges; ints, not
    # triples, since the suite's traced peak comes while the battery is built
    psis = ([psi(*t).value for t in itertools.product(units, units, letters)]
            if max_size >= 5 else [])
    for n in (5, 6):
        if n > max_size:
            continue
        for target in targets:
            # The unit-triple merges, most of the battery, skip shared():
            # their domains are all distinct and read the walk directly, and
            # their codomains are the phi(N) sets pinning a_2 to a unit.
            source = walks[n, target.key()]
            cods = {x.value: shared(SetSpec(n - 2, target, {2: fixed(x.value)})) for x in units}
            for (u, v, w), x in zip(itertools.product(units, units, letters), psis):
                tmap = _unit_triple_map(n, modulus, target, u, v, w, cods[x])
                tmap.domain._source = source
                out.append(tmap)
    for n in range(4, max_size + 1, 2):
        for sign in (1, -1):
            for u in units:
                out.append(_unit_insertion_map(n, modulus, sign, u, shared))
    fibers = {x: FiberSet(modulus, x) for x in units}
    for x in units:
        out.append(_fiber_map(modulus, x, fibers[Residue(1, modulus)], fibers[x]))
    return out
