"""Executable bijections between constrained tuple sets, with a harness
that proves each forward/backward pair reciprocal on enumerated domains.

Maps operate on explicit tuples of residues, never on counts, so a broken
transcription surfaces as a concrete counterexample tuple instead of a
silently wrong total.  Positions are 1-based in every docstring to match
tuple subscripts a_1..a_n; code indexes are 0-based.

The harness runs forward and backward once per domain member; in its pass
over the codomain, a member that was already an image needs only its
preimage's domain membership checked, so a bijection costs one forward and
one backward per member.  A battery from shipped_maps shares its solution
sets, and so their membership indexes, and computes all psi fibers in one
psi pass.
"""

from __future__ import annotations

import itertools
from typing import Callable, NamedTuple

from .modring import Modulus, NotAUnit, Residue, nonunits_of, units_of
from .oracle import psi, psi_domain, solutions
from .sl2 import Mat2, continuant_product, identity, neg_identity, target_name
from .spec import NONUNIT, SetSpec, UNIT, fixed


class DomainViolation(ValueError):
    """Input tuple is outside the map's stated domain."""


def _product_sign(t) -> int:
    """1 or -1 when the tuple's product is +Id or -Id, else 0 (1 when N = 2,
    where the two agree)."""
    mod = t[0].modulus
    a, b, c, d = continuant_product([x.value for x in t], mod).entries()
    if b or c or a != d:
        return 0
    return 1 if a == 1 else -1 if a == mod.n - 1 else 0


# ---------------------------------------------------------------------------
# elementwise operations


def negate_map(t: tuple) -> tuple:
    """Negate every entry; sends odd-size solutions of +Id to -Id."""
    if len(t) % 2 != 1:
        raise DomainViolation(f"size {len(t)} is even")
    if _product_sign(t) != 1:
        raise DomainViolation(f"product of {t} is not the identity")
    return tuple(-a for a in t)


def scale_map(t: tuple, lam: Residue) -> tuple:
    """Scale odd positions by lam and even positions by lam^-1.

    Keeps even-size tuples inside their +-Id solution set.
    """
    if not (len(t) % 2 == 0 and len(t) >= 4):
        raise DomainViolation(f"size {len(t)} is not even >= 4")
    if not lam.is_unit:
        raise NotAUnit(f"{lam.value} is not invertible mod {lam.modulus.n}")
    if not _product_sign(t):
        raise DomainViolation(f"product of {t} is not +-Id")
    inv = lam.inverse()
    return tuple(a * lam if i % 2 == 0 else a * inv for i, a in enumerate(t))


def reduce_one(t: tuple, i: int = 2) -> tuple:
    """Remove a letter 1 at interior position i, absorbing it into both
    neighbours (each drops by 1); the product is unchanged."""
    n = len(t)
    if not (2 <= i <= n - 1):
        raise DomainViolation(f"position {i} is not interior for size {n}")
    if t[i - 1].value != 1:
        raise DomainViolation(f"letter at position {i} is {t[i - 1].value}, not 1")
    return t[: i - 2] + (t[i - 2] - 1, t[i] - 1) + t[i + 1:]


def insert_one(t: tuple, i: int = 2) -> tuple:
    """Insert a letter 1 at position i, bumping both neighbours by 1."""
    n = len(t) + 1
    if not (2 <= i <= n - 1):
        raise DomainViolation(f"position {i} is not interior for size {n}")
    one = Residue(1, t[0].modulus)
    return t[: i - 2] + (t[i - 2] + 1, one, t[i - 1] + 1) + t[i:]


def reduce_minus_one(t: tuple, i: int = 2) -> tuple:
    """Remove a letter -1 at interior position i (neighbours gain 1); the
    product is negated."""
    n = len(t)
    if not (2 <= i <= n - 1):
        raise DomainViolation(f"position {i} is not interior for size {n}")
    if (-t[i - 1]).value != 1:
        raise DomainViolation(f"letter at position {i} is {t[i - 1].value}, not -1")
    return t[: i - 2] + (t[i - 2] + 1, t[i] + 1) + t[i + 1:]


def insert_minus_one(t: tuple, i: int = 2) -> tuple:
    """Insert a letter -1 at position i (neighbours drop by 1); negates the
    product."""
    n = len(t) + 1
    if not (2 <= i <= n - 1):
        raise DomainViolation(f"position {i} is not interior for size {n}")
    minus_one = Residue(-1, t[0].modulus)
    return t[: i - 2] + (t[i - 2] - 1, minus_one, t[i - 1] - 1) + t[i:]


def reduce_pair(t: tuple) -> tuple:
    """Merge positions 2 and 3 into the single letter a2*a3 - 1.

    Needs a2*a3 - 1 invertible; positions 1 and 4 pick up correction
    terms and the product is unchanged.  Size drops by one.
    """
    if len(t) < 4:
        raise DomainViolation(f"size {len(t)} < 4")
    x, y = t[1], t[2]
    merged = x * y - 1
    if not merged.is_unit:
        raise NotAUnit(f"{x.value}*{y.value} - 1 is not invertible mod {x.modulus.n}")
    e = merged.inverse()
    return (t[0] + (1 - y) * e, merged) + (t[3] + (1 - x) * e,) + t[4:]


def expand_pair(t: tuple, x: Residue, y: Residue) -> tuple:
    """Inverse of reduce_pair for the split letters (x, y); the second
    entry of t must equal x*y - 1."""
    if len(t) < 3:
        raise DomainViolation(f"size {len(t)} < 3")
    merged = x * y - 1
    if t[1] != merged:
        raise DomainViolation(f"second entry {t[1].value} != {merged.value}")
    e = merged.inverse()
    return (t[0] - (1 - y) * e, x, y) + (t[2] - (1 - x) * e,) + t[3:]


def reduce_quintuple(t: tuple) -> tuple:
    """Collapse positions 2..4 = (u, v, w) into the single unit letter
    psi(u, v, w); size drops by two and the product is unchanged.

    Needs v and psi(u, v, w) invertible, which always holds when u and v
    are both units.
    """
    if len(t) < 5:
        raise DomainViolation(f"size {len(t)} < 5")
    u, v, w = t[1], t[2], t[3]
    x = psi(u, v, w)
    if not x.is_unit:
        raise NotAUnit(f"psi value {x.value} is not invertible mod {x.modulus.n}")
    xi = x.inverse()
    return (t[0] - (v * w - 2) * xi, x) + (t[4] - (u * v - 2) * xi,) + t[5:]


def expand_quintuple(t: tuple, u: Residue, v: Residue, w: Residue) -> tuple:
    """Inverse of reduce_quintuple for the split letters (u, v, w)."""
    if len(t) < 3:
        raise DomainViolation(f"size {len(t)} < 3")
    x = psi(u, v, w)
    if t[1] != x:
        raise DomainViolation(f"second entry {t[1].value} != psi = {x.value}")
    xi = x.inverse()
    return (t[0] + (v * w - 2) * xi, u, v, w) + (t[2] + (u * v - 2) * xi,) + t[3:]


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
    if not _product_sign(t):
        raise DomainViolation(f"product of {t} is not +-Id")
    ui = u.inverse()
    out = [(t[0] + 1) * ui, u, (t[1] + 1) * ui]
    for p in range(3, len(t) + 1):
        out.append(t[p - 1] * (u if p % 2 == 1 else ui))
    return tuple(out)


def unit_drop_map(t: tuple) -> tuple:
    """Inverse of unit_insert_map; the unit is read from position 2."""
    if len(t) % 2 != 0:
        raise DomainViolation(f"size {len(t)} is odd")
    u = t[1]
    if not u.is_unit:
        raise NotAUnit(f"second entry {u.value} is not invertible mod {u.modulus.n}")
    ui = u.inverse()
    out = [t[0] * u - 1, t[2] * u - 1]
    for p in range(2, len(t) - 1):
        out.append(t[p + 1] * (ui if p % 2 == 0 else u))
    return tuple(out)


def fiber_shift_map(triple: tuple, x: Residue) -> tuple:
    """Carry a psi-fiber-of-1 triple (u, v, w) to the fiber of x via
    (xu, v x^-1, wx)."""
    u, v, w = triple
    if psi(u, v, w).value != 1:
        raise DomainViolation(f"psi{tuple(a.value for a in triple)} != 1")
    if not x.is_unit:
        raise NotAUnit(f"{x.value} is not invertible mod {x.modulus.n}")
    xi = x.inverse()
    return (x * u, v * xi, w * x)


def fiber_unshift_map(triple: tuple, x: Residue) -> tuple:
    """Inverse of fiber_shift_map: from the fiber of x back to the fiber of 1."""
    u, v, w = triple
    if psi(u, v, w) != x:
        raise DomainViolation(f"psi{tuple(a.value for a in triple)} != {x.value}")
    xi = x.inverse()
    return (u * xi, v * x, w * xi)


# ---------------------------------------------------------------------------
# enumerable sets and the reciprocity harness


def _target_label(target: Mat2) -> str:
    return target_name(target) or f"key{target.key()}"


class SpecSet:
    """An enumerable tuple set described by a SetSpec.

    Membership is a lookup among the enumerated members.  The index is
    built once per set, and each member is checked against spec.matches
    as it goes in: a member the enumeration got wrong is left out, so the
    harness reports it, and a tuple the enumeration missed is refused.
    """

    def __init__(self, spec: SetSpec):
        self.spec = spec
        self._members = None
        self._index = None

    def members(self, budget=None) -> tuple:
        if self._members is None:
            self._members = tuple(solutions(self.spec, budget))
        return self._members

    def contains(self, t) -> bool:
        if self._index is None:
            # matches() reads each letter with int(); plain values skip a
            # Python-level __int__ call per letter
            matches = self.spec.matches
            self._index = frozenset(m for m in self.members()
                                    if matches([a.value for a in m]))
        return t in self._index


class FiberSet:
    """The psi fiber over a unit x: triples (u, v, w) with psi = x.

    Members come from a psi pass over psi_domain that buckets every triple
    by its psi value.  Fibers given one ``buckets`` dict share that pass,
    made by the first of them to be enumerated.
    """

    def __init__(self, modulus: Modulus, x: Residue, buckets: dict | None = None):
        self.modulus = modulus
        self.x = x
        self._buckets = {} if buckets is None else buckets
        self._members = None

    def members(self, budget=None) -> tuple:
        if self._members is None:
            if not self._buckets:
                for t in psi_domain(self.modulus):
                    self._buckets.setdefault(psi(*t).value, []).append(t)
            self._members = tuple(self._buckets.get(self.x.value, ()))
        return self._members

    def contains(self, t) -> bool:
        return (len(t) == 3 and t[0].is_unit and t[1].is_unit
                and psi(t[0], t[1], t[2]) == self.x)


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


def _shared(registry, spec: SetSpec) -> SpecSet:
    if registry is None:
        return SpecSet(spec)
    if spec not in registry:
        registry[spec] = SpecSet(spec)
    return registry[spec]


def _shared_fiber(registry, modulus: Modulus, x: Residue) -> FiberSet:
    if registry is None:
        return FiberSet(modulus, x)
    if x not in registry:
        registry[x] = FiberSet(modulus, x, registry.setdefault(modulus, {}))
    return registry[x]


def negation_bijection(size: int, modulus: Modulus, registry=None) -> TupleMap:
    """Entrywise negation between the +Id and -Id solution sets (odd size)."""
    dom = _shared(registry, SetSpec(size, identity(modulus)))
    cod = _shared(registry, SetSpec(size, neg_identity(modulus)))
    return TupleMap(f"negation(n={size}, N={modulus.n})", dom, cod,
                    negate_map, lambda t: tuple(-a for a in t))


def scaling_bijection(size: int, modulus: Modulus, sign: int, lam: Residue,
                      registry=None) -> TupleMap:
    """Alternate scaling by a unit, a self-bijection of an even-size
    solution set."""
    target = identity(modulus) if sign == 1 else neg_identity(modulus)
    dom = _shared(registry, SetSpec(size, target))
    inv = lam.inverse()
    return TupleMap(
        f"scaling(n={size}, N={modulus.n}, sign={'+' if sign == 1 else '-'}, lam={lam.value})",
        dom, dom, lambda t: scale_map(t, lam), lambda t: scale_map(t, inv))


def drop_minus_one_bijection(size: int, modulus: Modulus, target: Mat2,
                             registry=None) -> TupleMap:
    """Tuples with second entry -1 and product B, onto size-1 smaller
    tuples with product -B."""
    dom = _shared(registry, SetSpec(size, target, {2: fixed(-1)}))
    cod = _shared(registry, SetSpec(size - 1, -target))
    return TupleMap(
        f"drop-minus-one(n={size}, N={modulus.n}, target={_target_label(target)})",
        dom, cod, reduce_minus_one, insert_minus_one)


def merge_after_unit_bijection(size: int, modulus: Modulus, target: Mat2,
                               u: Residue, registry=None) -> TupleMap:
    """Second entry fixed to the unit u, third entry a free non-unit,
    onto size-1 smaller tuples with a free unit second entry.

    The merged letter u*a3 - 1 is a unit exactly because a3 is not, and
    the backward direction recovers a3 = u^-1 (merged + 1).
    """
    dom = _shared(registry, SetSpec(size, target, {2: fixed(int(u)), 3: NONUNIT}))
    cod = _shared(registry, SetSpec(size - 1, target, {2: UNIT}))
    ui = u.inverse()

    def backward(t):
        return expand_pair(t, u, ui * (t[1] + 1))

    return TupleMap(
        f"merge-after-unit(n={size}, N={modulus.n}, target={_target_label(target)}, u={u.value})",
        dom, cod, reduce_pair, backward)


def merge_fixed_pair_bijection(size: int, modulus: Modulus, target: Mat2,
                               x: Residue, y: Residue, registry=None) -> TupleMap:
    """Second and third entries pinned to (x, y) with x*y - 1 a unit, onto
    size-1 smaller tuples with second entry pinned to x*y - 1."""
    merged = x * y - 1
    if not merged.is_unit:
        raise NotAUnit(f"{x.value}*{y.value} - 1 is not invertible mod {modulus.n}")
    dom = _shared(registry, SetSpec(size, target, {2: fixed(int(x)), 3: fixed(int(y))}))
    cod = _shared(registry, SetSpec(size - 1, target, {2: fixed(int(merged))}))
    return TupleMap(
        f"merge-fixed-pair(n={size}, N={modulus.n}, target={_target_label(target)}, "
        f"x={x.value}, y={y.value})",
        dom, cod, reduce_pair, lambda t: expand_pair(t, x, y))


def merge_unit_triple_bijection(size: int, modulus: Modulus, target: Mat2,
                                u: Residue, v: Residue, w: Residue,
                                registry=None) -> TupleMap:
    """Entries 2..4 pinned to (u, v, w) with u, v units, onto size-2
    smaller tuples with second entry pinned to the unit psi(u, v, w)."""
    x = psi(u, v, w)
    dom = _shared(registry, SetSpec(size, target,
                                    {2: fixed(int(u)), 3: fixed(int(v)), 4: fixed(int(w))}))
    cod = _shared(registry, SetSpec(size - 2, target, {2: fixed(int(x))}))
    return TupleMap(
        f"merge-unit-triple(n={size}, N={modulus.n}, target={_target_label(target)}, "
        f"u={u.value}, v={v.value}, w={w.value})",
        dom, cod, reduce_quintuple, lambda t: expand_quintuple(t, u, v, w))


def unit_insertion_bijection(size: int, modulus: Modulus, sign: int, u: Residue,
                             registry=None) -> TupleMap:
    """Odd-size solutions onto the even-size solutions whose second entry
    is the unit u (same sign)."""
    target = identity(modulus) if sign == 1 else neg_identity(modulus)
    dom = _shared(registry, SetSpec(size - 1, target))
    cod = _shared(registry, SetSpec(size, target, {2: fixed(int(u))}))
    return TupleMap(
        f"unit-insertion(n={size}, N={modulus.n}, sign={'+' if sign == 1 else '-'}, u={u.value})",
        dom, cod, lambda t: unit_insert_map(t, u), unit_drop_map)


def fiber_shift_bijection(modulus: Modulus, x: Residue, registry=None) -> TupleMap:
    """The psi fiber over 1 onto the fiber over x."""
    return TupleMap(f"fiber-shift(N={modulus.n}, x={x.value})",
                    _shared_fiber(registry, modulus, Residue(1, modulus)),
                    _shared_fiber(registry, modulus, x),
                    lambda t: fiber_shift_map(t, x),
                    lambda t: fiber_unshift_map(t, x))


def shipped_maps(modulus: Modulus, max_size: int) -> list[TupleMap]:
    """The full battery of bijections to verify for one 2-power modulus.

    Enumerable sets are shared between instances, so verifying the whole
    list enumerates each underlying solution set once, and all psi fibers
    come from one psi pass.
    """
    if modulus.two_adic is None:
        raise ValueError("shipped maps are defined over 2-power moduli")
    # SetSpec -> SpecSet, unit x -> FiberSet over x, and the modulus -> the
    # psi buckets those fibers share
    registry: dict = {}
    units = units_of(modulus)
    nonunits = nonunits_of(modulus)
    targets = (identity(modulus), neg_identity(modulus))
    out: list[TupleMap] = []
    for n in range(3, max_size + 1, 2):
        out.append(negation_bijection(n, modulus, registry))
    for n in range(4, max_size + 1, 2):
        for sign in (1, -1):
            for lam in units:
                out.append(scaling_bijection(n, modulus, sign, lam, registry))
    for n in range(4, max_size + 1):
        for target in targets:
            out.append(drop_minus_one_bijection(n, modulus, target, registry))
            for u in units:
                out.append(merge_after_unit_bijection(n, modulus, target, u, registry))
    for n in range(6, max_size + 1, 2):
        for target in targets:
            for x in nonunits[:2]:
                for y in (nonunits[1], units[1]):
                    out.append(merge_fixed_pair_bijection(n, modulus, target, x, y, registry))
    for n in (5, 6):
        if n > max_size:
            continue
        for target in targets:
            for u in units:
                for v in units:
                    for w in range(modulus.n):
                        out.append(merge_unit_triple_bijection(
                            n, modulus, target, u, v, Residue(w, modulus), registry))
    for n in range(4, max_size + 1, 2):
        for sign in (1, -1):
            for u in units:
                out.append(unit_insertion_bijection(n, modulus, sign, u, registry))
    for x in units:
        out.append(fiber_shift_bijection(modulus, x, registry))
    return out
