"""The count router: which source answers a count request.

route_count is the one place a count's source is chosen.  It imports each
source inside the branch that takes it: ``crt`` to split a composite
modulus (``piece_counts``) or to pick a closed form (``closed_form``,
which loads ``formulas`` once it finds one), ``counter`` once the DP is
asked, ``oracle`` on the brute branch, and ``formulas`` to refuse.  A
fresh process then compiles only the sources its count runs: ``count
--method dp`` and ``--method brute`` compile neither ``crt`` nor the
closed forms.  ``crt`` reads route_count back for ``piece_counts``, so
``crt.route_count`` is this function.
"""

from __future__ import annotations

import math

from .modring import factorize
from .spec import NONUNIT, SetSpec, UNIT


def route_count(spec: SetSpec, method: str, budget: int | None = None) -> tuple[int, str]:
    """(count, source) from the source ``method`` allows.

    auto and formula count a spec over two or more coprime pieces as the
    product of its pieces' counts, a non-unit letter as a free one minus a
    unit one; the source is formula if every piece took a closed form,
    else brute if any piece asked the oracle, else dp.  A piece's formula
    refusal names the piece and the whole modulus.  Over a prime power
    they take crt.closed_form(spec) unless it is None (formula then
    refuses).  dp runs the DP or raises CapExceeded; brute, and auto on
    that refusal, ask the oracle.
    """
    if method in ("auto", "formula") and len(factorize(spec.modulus.n)) > 1:
        nonunit = next((p for p, con in spec.constraints if con == NONUNIT), None)
        if nonunit is None:
            from .crt import piece_counts

            try:
                routed = [(cnt, src) for _, cnt, src in piece_counts(spec, method, budget)]
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
        from .crt import closed_form

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
