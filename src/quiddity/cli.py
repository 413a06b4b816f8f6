"""Command-line surface: exact counts, formula evaluation, reference
tables, CRT assembly, and the verification suites.

Counts are always serialized as decimal strings; they outgrow 53-bit
floats well inside the supported parameter range.  Output is
deterministic for a fixed command line except for the elapsed_ms field.

Every call runs in a fresh interpreter and pays for the modules it
imports, and, without bytecode caching (PYTHONDONTWRITEBYTECODE), for
compiling them too.  So this module imports only ``modring`` and ``sl2``
itself.  Each command imports what it runs: ``count`` the set spec
(``spec``) and the router ``crt``, which loads a count source only when
its route takes it; ``formula`` and ``crt`` the closed forms
(``formulas``); ``table`` and ``verify`` their bodies in ``reference``,
whose suites load the bijection harness (``maps``) where they run it.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

from .modring import Modulus, NotAUnit
from .sl2 import Mat2, TARGET_NAMES, target_by_name


# ---------------------------------------------------------------------------
# parsing helpers


def _parse_ints(text: str) -> list[int]:
    """Accept '4,8' or '5..10' (inclusive range) or a single integer."""
    text = text.strip()
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        values = list(range(lo, hi + 1))
    else:
        values = [int(part) for part in text.split(",") if part]
    if not values:
        raise ValueError(f"{text!r} selects no values; want e.g. 3..10 or 3,5,7")
    return values

def _parse_target(text: str, modulus: Modulus) -> tuple[Mat2, str]:
    if text in TARGET_NAMES:
        return target_by_name(text, modulus), text
    parts = [int(v) for v in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"target must be one of {TARGET_NAMES} or four comma-separated entries")
    mat = Mat2(*parts, modulus)
    if mat.det() != 1:
        raise ValueError(f"target {text} has determinant {mat.det()}, not 1")
    return mat, ",".join(str(v) for v in mat.entries())


def _parse_constraint(text: str | None) -> tuple[dict, str]:
    from .spec import NONUNIT, UNIT, fixed

    if not text or text == "none":
        return {}, "none"
    m = re.fullmatch(r"a(\d+)-unit", text)
    if m:
        return {int(m.group(1)): UNIT}, text
    m = re.fullmatch(r"a(\d+)-nonunit", text)
    if m:
        return {int(m.group(1)): NONUNIT}, text
    m = re.fullmatch(r"a(\d+)=(-?\d+)", text)
    if m:
        return {int(m.group(1)): fixed(int(m.group(2)))}, text
    raise ValueError(f"cannot parse constraint {text!r} (want aK-unit, aK-nonunit or aK=V)")


def _emit(report: dict):
    sys.stdout.write(json.dumps(report) + "\n")


# ---------------------------------------------------------------------------
# count


def cmd_count(args) -> int:
    from . import crt
    from .spec import SetSpec

    modulus = Modulus(args.modulus)
    target, target_name = _parse_target(args.target, modulus)
    constraints, constraint_text = _parse_constraint(args.constraint)
    spec = SetSpec(args.size, target, constraints)
    started = time.perf_counter()
    count, method = crt.route_count(spec, args.method, args.budget)
    _emit({
        "modulus": args.modulus,
        "size": args.size,
        "target": target_name,
        "constraint": constraint_text,
        "method": method,
        "count": str(count),
        "elapsed_ms": int((time.perf_counter() - started) * 1000),
    })
    return 0


# ---------------------------------------------------------------------------
# formula


# name -> (function in ``formulas``, its parameters in call order).  The
# function is looked up by name at call time, so a rebound module attribute
# (as a tracer installs) is the one called.
FORMULAS = {
    "gauss-bracket": ("gauss_bracket", ("m", "k")),
    "gauss-binom2": ("gauss_binom2", ("m", "k")),
    "u-count": ("u_count", ("n", "q", "sign")),
    "w4-ring4": ("w4_ring4", ("n", "sign")),
    "w-odd-2m": ("w_odd_2m", ("n_half", "m", "sign")),
    "delta-closed": ("delta_closed_form", ("n", "m", "target")),
    "delta-base": ("delta_base", ("n", "m", "target")),
    "delta-recursion": ("delta_recursion", ("prev", "prev2", "m")),
    "w4-2m": ("w4_2m", ("m", "sign")),
    "w-even-bounds": ("w_even_bounds", ("n_half", "m", "sign")),
    "w8-even": ("w8_even", ("n_half",)),
    "w8-odd": ("w8_odd", ("n_half", "sign")),
    "zero-pairs": ("zero_pair_count", ("m",)),
}


def cmd_formula(args) -> int:
    from . import formulas

    function, names = FORMULAS[args.name]
    params = {}
    for name in names:
        params[name] = getattr(args, name)
        if params[name] is None:
            raise ValueError(f"formula {args.name!r} needs --{name.replace('_', '-')}")
    value = getattr(formulas, function)(*params.values())
    report = {"formula": args.name, "params": params}
    if isinstance(value, tuple):  # w_even_bounds: a (lower, upper) sandwich
        report.update(lower=str(int(value[0])), upper=str(int(value[1])))
    else:
        report["value"] = str(int(value))
    _emit(report)
    return 0


# ---------------------------------------------------------------------------
# tables and verification suites: their bodies live in ``reference``


# The suites ``verify`` runs, in the order ``all`` runs them; the same keys
# as reference.SUITES, listed here so that parsing does not import it.
SUITE_NAMES = ("bijections", "recursion", "bounds", "crt", "totality")


def cmd_table(args) -> int:
    from .reference import table_text

    rows = _parse_ints(args.rows) if args.rows is not None else None
    sys.stdout.write(table_text(args.which, rows))
    return 0


def cmd_verify(args) -> int:
    from .reference import run_suites

    moduli, sizes, ms = (_parse_ints(text) if text is not None else None
                         for text in (args.modulus, args.sizes, args.m))
    return run_suites(args, moduli, sizes, ms)


def __getattr__(name):
    # PEP 562: the table and suite names moved to ``reference`` (table_text,
    # Check, SUITES, _suite_bijections, ...) stay readable from here.
    if not name.startswith("__"):
        from . import reference

        if hasattr(reference, name):
            return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# crt


def cmd_crt(args) -> int:
    from . import crt, formulas
    from .spec import SetSpec

    started = time.perf_counter()
    sign = formulas.normalize_sign(args.sign)
    fact = crt.split(args.modulus)
    target = target_by_name("id" if sign == 1 else "neg-id", Modulus(args.modulus))
    pieces = crt.piece_counts(SetSpec(args.size, target), args.method)
    total = formulas.crt_count(args.size, [(mp, cnt) for mp, cnt, _ in pieces], sign)
    _emit({
        "modulus": args.modulus,
        "size": args.size,
        "sign": formulas.sign_name(sign),
        "factorization": {
            "two_exponent": fact.two_exponent,
            "odd_primes": list(fact.odd_primes),
        },
        "pieces": [{"modulus": mp, "count": str(cnt), "source": src}
                   for mp, cnt, src in pieces],
        "count": str(int(total)),
        "elapsed_ms": int((time.perf_counter() - started) * 1000),
    })
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiddity",
        description="Exact counting and verification for lambda-quiddities over Z/NZ.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count solution tuples for one configuration")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--target", default="id",
                   help="id, neg-id, s, neg-s, t, neg-t, or four comma-separated entries")
    p.add_argument("--constraint", default=None, help="aK-unit, aK-nonunit or aK=V")
    p.add_argument("--method", default="auto", choices=["auto", "formula", "dp", "brute"])
    p.add_argument("--budget", default=None)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("formula", help="evaluate one closed-form expression")
    p.add_argument("--name", required=True, choices=list(FORMULAS))
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--n-half", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--sign", choices=["+", "-"])
    p.add_argument("--target", choices=list(TARGET_NAMES))
    p.add_argument("--prev", type=int)
    p.add_argument("--prev2", type=int)
    p.set_defaults(func=cmd_formula)

    p = sub.add_parser("table", help="print one reference table as CSV")
    p.add_argument("--which", required=True,
                   choices=["odd-w-plus", "w8", "delta-id", "delta-s"])
    p.add_argument("--rows", default=None, help="row sizes, e.g. 3..10 or 3,5,7")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=[*SUITE_NAMES, "all"])
    p.add_argument("--modulus", default=None, help="moduli, e.g. 4,8")
    p.add_argument("--m", default=None, help="2-power exponents, e.g. 2,3")
    p.add_argument("--sizes", default=None, help="sizes, e.g. 5..10")
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--budget", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("crt", help="assemble a count from coprime pieces")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--sign", default="+", choices=["+", "-"])
    p.add_argument("--method", default="auto", choices=["auto", "formula", "dp", "brute"])
    p.set_defaults(func=cmd_crt)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "budget", None) is not None:  # count and verify
            from .spec import parse_budget

            args.budget = parse_budget(args.budget, "--budget")
        return args.func(args)
    except (ValueError, NotAUnit) as err:
        # A bad request exits 2 with its message.  ValueError covers
        # CapExceeded, UnsupportedCase, BudgetExceeded and a modulus too
        # large to factor.
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
