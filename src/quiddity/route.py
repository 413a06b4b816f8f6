"""The count router: which source answers a count request.

route_count chooses a count's source, and every part of that choice lives
here: the closed form for a prime-power spec (closed_form) and the coprime
pieces of a composite modulus (pieces).  Each source is imported in the
branch that takes it (``formulas``, ``counter``, ``oracle``), so a fresh
process compiles only the sources its count runs, and no count compiles
``crt``, which reads pieces and route_count from here.
"""

import math

from .modring import Modulus, factorize
from .sl2 import Mat2, target_name
from .spec import NONUNIT, SetSpec, UNIT


def _form(spec: SetSpec) -> tuple[str, tuple] | None:
    """The name and arguments of the ``formulas`` function that counts
    ``spec`` over a prime power, or None."""
    name, ((p, k), *other_primes) = target_name(spec.target), factorize(spec.modulus.n)
    if name is None or other_primes:
        return None
    if spec.constraints == ((2, UNIT),) and p == 2 and k >= 2:
        return "delta_value", (spec.size, k, name)
    if spec.constraints or name not in ("id", "neg-id"):
        return None
    size, sign = spec.size, 1 if name == "id" else -1
    if p > 2:
        return ("u_count", (size, p, sign)) if k == 1 and size > 4 else None
    if k == 1:
        return None
    if size % 2 and size >= 5:
        return "w_odd_2m", ((size - 1) // 2, k, sign)
    if size == 4:
        return "w4_2m", (k, sign)
    if size % 2 == 0 and size >= 6 and k == 2:
        return "w4_ring4", (size, sign)
    return None


def closed_form(spec: SetSpec):
    """The closed form (a formulas.FormulaValue) that counts ``spec`` over
    a prime power, or None.

    A unit second entry at a named target over Z/2^mZ (m >= 2) takes
    delta_value, an unconstrained +-Id spec its piece formula; the target
    is read from its matrix.  u_count counts over a field, which Z/p^kZ is
    not for k >= 2 (at size 7 and +Id, F_9 has 6643 solutions and Z/9Z
    7371).  A composite modulus has none: route_count splits it.  The
    choice is made before ``formulas`` is imported, so a spec with no
    closed form never loads it.
    """
    form = _form(spec)
    if form is None:
        return None
    from . import formulas

    function, args = form
    return getattr(formulas, function)(*args)


def pieces(spec: SetSpec) -> list[SetSpec]:
    """``spec`` modulo each prime power of its modulus: a tuple lies in
    ``spec`` exactly when its residues lie in every piece.  A unit letter
    stays a unit letter; a non-unit letter, a non-unit modulo some piece
    only, has no such reading and is refused."""
    if any(con == NONUNIT for _, con in spec.constraints):
        raise ValueError("a non-unit letter does not split into coprime pieces")
    return [SetSpec(spec.size, Mat2(*spec.target.entries(), Modulus(p ** k)), spec.constraints)
            for p, k in factorize(spec.modulus.n)]


def route_count(spec: SetSpec, method: str, budget: int | None = None) -> tuple[int, str]:
    """(count, source) from the source ``method`` allows.

    auto and formula count a spec over two or more coprime pieces as the
    product of its pieces' counts, a non-unit letter as a free one minus a
    unit one; the source is formula if every piece took a closed form,
    else brute if any piece asked the oracle, else dp.  A piece's formula
    refusal names the piece and the whole modulus.  Over a prime power
    they take closed_form(spec) unless it is None (formula then refuses).
    dp runs the DP or raises CapExceeded; brute, and auto on that
    refusal, ask the oracle.
    """
    if method in ("auto", "formula") and len(factorize(spec.modulus.n)) > 1:
        nonunit = next((p for p, con in spec.constraints if con == NONUNIT), None)
        if nonunit is None:
            try:
                routed = [route_count(piece, method, budget) for piece in pieces(spec)]
            except ValueError as err:
                if method != "formula":  # a formula route's one error is a piece's refusal
                    raise
                from .formulas import UnsupportedCase

                raise UnsupportedCase(f"{err}, a piece of Z/{spec.modulus.n}Z") from None
            value = math.prod(cnt for cnt, _ in routed)
        else:
            rest = [(p, con) for p, con in spec.constraints if p != nonunit]
            routed = [route_count(SetSpec(spec.size, spec.target, rest + unit), method, budget)
                      for unit in ([], [(nonunit, UNIT)])]
            value = routed[0][0] - routed[1][0]
        # formula only if every piece took one, else brute if any piece did
        return value, min((src for _, src in routed), key=("brute", "dp", "formula").index)
    if method in ("auto", "formula"):
        value = closed_form(spec)
        if value is not None:
            return int(value), "formula"
        if method == "formula":
            from .formulas import UnsupportedCase

            raise UnsupportedCase(f"no formula for size {spec.size} over Z/{spec.modulus.n}Z")
    if method in ("auto", "dp"):
        from . import counter

        try:
            return counter.dp_count(spec, budget), "dp"
        except counter.CapExceeded:
            if method == "dp":
                raise
    elif method != "brute":
        raise ValueError(f"unknown method {method!r}")
    from . import oracle

    return oracle.count(spec, "auto", budget), "brute"
