"""Command-line surface: exact counts, formula evaluation, reference
tables, CRT assembly, and the verification suites.

Counts are always serialized as decimal strings; they outgrow 53-bit
floats well inside the supported parameter range.  Output is
deterministic for a fixed command line except for the elapsed_ms field.

Every call runs in a fresh interpreter and pays for the modules it
imports, so each command imports the counting modules (``counter``,
``crt``, ``oracle``) it runs, and the bijection harness (``maps``) is
imported only inside the suites that run it.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from typing import NamedTuple

from . import formulas
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
    from .oracle import NONUNIT, UNIT, fixed

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
    from .oracle import SetSpec

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
# tables


ODD_W_PLUS_MODULI = (8, 16, 24, 32, 40)


def _odd_w_plus_cell(size: int, n: int) -> int:
    from . import crt, oracle

    if size == 3:
        modulus = Modulus(n)
        spec = oracle.SetSpec(3, target_by_name("id", modulus))
        return oracle.count(spec, "mitm")
    return int(crt.assemble_count(size, crt.split(n), 1, method="formula"))


def _w8_cell(size: int) -> int:
    if size >= 4 and size % 2 == 0:
        return int(formulas.w8_even(size // 2))
    if size >= 5 and size % 2 == 1:
        return 2 * int(formulas.w8_odd((size - 1) // 2, 1))
    from . import counter

    mod8 = Modulus(8)
    vec = counter.dp_vector(size, mod8)
    return vec.at(target_by_name("id", mod8)) + vec.at(target_by_name("neg-id", mod8))


def table_text(which: str, rows: list[int] | None = None) -> str:
    """The CSV body for one reference table (header + one line per row)."""
    if which == "odd-w-plus":
        rows = [3, 5, 7, 9] if rows is None else rows
        if any(size % 2 == 0 or size < 3 for size in rows):
            raise ValueError("odd-w-plus rows must be odd sizes >= 3")
        lines = ["n," + ",".join(str(n) for n in ODD_W_PLUS_MODULI)]
        for size in rows:
            cells = [_odd_w_plus_cell(size, n) for n in ODD_W_PLUS_MODULI]
            lines.append(f"{size}," + ",".join(str(c) for c in cells))
    elif which == "w8":
        rows = list(range(2, 11)) if rows is None else rows
        if any(size < 2 for size in rows):
            raise ValueError("w8 rows must be sizes >= 2")
        lines = ["n,count"] + [f"{size},{_w8_cell(size)}" for size in rows]
    elif which in ("delta-id", "delta-s"):
        rows = list(range(3, 11)) if rows is None else rows
        if any(size < 3 for size in rows):
            raise ValueError("delta rows must be sizes >= 3")
        target = "id" if which == "delta-id" else "s"
        lines = ["n,count"]
        lines += [f"{size},{int(formulas.delta_value(size, 3, target))}" for size in rows]
    else:
        raise ValueError(f"unknown table {which!r}")
    return "\n".join(lines) + "\n"


def cmd_table(args) -> int:
    rows = _parse_ints(args.rows) if args.rows is not None else None
    sys.stdout.write(table_text(args.which, rows))
    return 0


# ---------------------------------------------------------------------------
# verification suites


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def _suite_bijections(moduli: list[int], max_size: int | None,
                      budget: int | None) -> list[Check]:
    if max_size is not None and max_size < 3:
        raise ValueError(f"--max-size must be >= 3 (the smallest shipped map), got {max_size}")
    from . import maps

    default_depth = {4: 8, 8: 6}
    checks = []
    for n in moduli:
        modulus = Modulus(n)
        depth = default_depth.get(n, 6) if max_size is None else max_size
        for tmap in maps.shipped_maps(modulus, depth):
            report = maps.verify_reciprocal(tmap, budget)
            detail = f"|domain|={report.domain_size}"
            if not report.ok:
                detail = f"{report.failure}; counterexample={report.counterexample}"
            checks.append(Check(report.map_name, report.ok, detail))
    return checks


def _suite_recursion(ms: list[int], sizes: list[int], budget: int | None) -> list[Check]:
    sizes = [size for size in sizes if size >= 5]
    if not sizes:
        raise ValueError("recursion checks need a size >= 5")
    from . import counter
    from .oracle import UNIT

    checks = []
    top = max(sizes)
    for m in ms:
        modulus = Modulus(1 << m)
        seq = counter.dp_vector_sequence(top, modulus, {2: UNIT}, budget)
        for name in TARGET_NAMES:
            target = target_by_name(name, modulus)
            series = [vec.at(target) for vec in seq]
            for size in sizes:
                expected = int(formulas.delta_recursion(series[size - 1], series[size - 2], m))
                checks.append(Check(
                    f"recursion dp m={m} target={name} n={size}",
                    series[size] == expected,
                    f"{series[size]} vs {expected}"))
    mismatches = []
    for m in range(2, 7):
        for size in range(7, 41):
            for target in ("id", "s"):
                got = int(formulas.delta_closed_form(size, m, target))
                expected = int(formulas.delta_recursion(
                    formulas.delta_closed_form(size - 1, m, target),
                    formulas.delta_closed_form(size - 2, m, target), m))
                if got != expected:
                    mismatches.append(f"m={m} target={target} n={size}: {got} vs {expected}")
    detail = f"{len(mismatches)} mismatches, first {mismatches[0]}" if mismatches else "exact"
    checks.append(Check("recursion formula identity m=2..6 n=7..40", not mismatches, detail))
    return checks


def _suite_bounds(ms: list[int], sizes: list[int] | None,
                  budget: int | None) -> list[Check]:
    from . import counter

    default_sizes = {2: [6, 8, 10], 3: [6, 8]}
    checks = []
    for m in ms:
        modulus = Modulus(1 << m)
        for size in (sizes or default_sizes.get(m, [6, 8])):
            if size % 2 or size < 6:
                raise ValueError("bounds apply to even sizes >= 6")
            vec = counter.dp_vector(size, modulus, budget=budget)
            for sign, name in ((1, "id"), (-1, "neg-id")):
                lower, upper = formulas.w_even_bounds(size // 2, m, sign)
                got = vec.at(target_by_name(name, modulus))
                checks.append(Check(
                    f"bounds m={m} n={size} sign={'+' if sign == 1 else '-'}",
                    int(lower) <= got <= int(upper),
                    f"{int(lower)} <= {got} <= {int(upper)}"))
    return checks


def _suite_crt(sizes: list[int], budget: int | None) -> list[Check]:
    from . import counter, crt, maps
    from .oracle import SetSpec

    checks = []
    mod12 = Modulus(12)
    fact = crt.split(12)
    for size in sizes:
        for sign, name in ((1, "id"), (-1, "neg-id")):
            direct = counter.dp_count(SetSpec(size, target_by_name(name, mod12)), budget)
            assembled = int(crt.assemble_count(size, fact, sign, budget=budget))
            checks.append(Check(
                f"crt count n={size} N=12 sign={'+' if sign == 1 else '-'}",
                direct == assembled, f"dp={direct} assembled={assembled}"))
    for size in [s for s in sizes if s <= 5]:
        for sign in (1, -1):
            report = maps.verify_reciprocal(crt.crt_split_bijection(size, 12, sign), budget)
            checks.append(Check(report.map_name, report.ok,
                                report.failure or f"|domain|={report.domain_size}"))
    return checks


def _suite_totality(moduli: list[int], sizes: list[int],
                    budget: int | None) -> list[Check]:
    from . import counter, oracle

    checks = []
    for n in moduli:
        modulus = Modulus(n)
        for size in sizes:
            vec = counter.dp_vector(size, modulus, budget=budget)
            checks.append(Check(f"totality dp N={n} n={size}",
                                vec.total() == n ** size,
                                f"{vec.total()} vs {n}^{size}"))
        for size in [s for s in sizes if n ** s <= 1 << 20]:
            hist = oracle.product_histogram(size, modulus, budget=budget)
            checks.append(Check(f"totality oracle N={n} n={size}",
                                sum(hist.values()) == n ** size, "bucketed walk"))
    return checks


# Suite name -> runner(args, moduli, sizes, ms); moduli and sizes are None
# when not given, and each suite fills in its own default.  ``all`` runs
# them in this order.
SUITES = {
    "bijections": lambda args, moduli, sizes, ms: _suite_bijections(
        moduli or [4, 8], args.max_size, args.budget),
    "recursion": lambda args, moduli, sizes, ms: _suite_recursion(
        ms, sizes or list(range(5, 9)), args.budget),
    "bounds": lambda args, moduli, sizes, ms: _suite_bounds(ms, sizes, args.budget),
    "crt": lambda args, moduli, sizes, ms: _suite_crt(sizes or list(range(4, 8)), args.budget),
    "totality": lambda args, moduli, sizes, ms: _suite_totality(
        moduli or [3, 4, 8], sizes or list(range(1, 8)), args.budget),
}


def cmd_verify(args) -> int:
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    moduli, sizes, ms = (_parse_ints(text) if text is not None else None
                         for text in (args.modulus, args.sizes, args.m))
    checks: list[Check] = []
    for suite in suites:
        checks += SUITES[suite](args, moduli, sizes, ms or [2, 3])
    failures = [c for c in checks if not c.ok]
    for check in checks:
        status = "PASS" if check.ok else "FAIL"
        line = f"{status} {check.name}"
        if check.detail:
            line += f" ({check.detail})"
        sys.stdout.write(line + "\n")
    sys.stdout.write(f"{len(checks) - len(failures)}/{len(checks)} checks passed\n")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# crt


def cmd_crt(args) -> int:
    from . import crt

    started = time.perf_counter()
    sign = formulas.normalize_sign(args.sign)
    fact = crt.split(args.modulus)
    pieces = crt.piece_counts(args.size, fact, sign, args.method)
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
    p.add_argument("--suite", required=True, choices=[*SUITES, "all"])
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
            from .oracle import parse_budget

            args.budget = parse_budget(args.budget, "--budget")
        return args.func(args)
    except (ValueError, NotAUnit) as err:
        # A bad request exits 2 with its message.  ValueError covers
        # CapExceeded, UnsupportedCase, NonSquarefree (pieces that are not
        # coprime), BudgetExceeded and a modulus too large to factor.
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
