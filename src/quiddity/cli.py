"""Command-line surface: exact counts, formula evaluation, reference
tables, CRT assembly, and the verification suites.

Counts are always serialized as decimal strings; they outgrow 53-bit
floats well inside the supported parameter range.  Output is
deterministic for a fixed command line except for the elapsed_ms field.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass

from . import counter, crt, formulas, maps, oracle
from .modring import Modulus, NotAUnit
from .oracle import NONUNIT, SetSpec, UNIT, fixed
from .sl2 import (
    CapExceeded,
    ENUMERATION_CAP,
    Mat2,
    TARGET_NAMES,
    group_order,
    target_by_name,
)

USAGE_ERRORS = (
    ValueError,
    NotAUnit,
    CapExceeded,
    oracle.BudgetExceeded,
    formulas.UnsupportedCase,
    formulas.NonSquarefree,
    crt.NonSquarefreeOddPart,
)


# ---------------------------------------------------------------------------
# parsing helpers


def _parse_ints(text: str) -> list[int]:
    """Accept '4,8' or '5..10' (inclusive range) or a single integer."""
    text = text.strip()
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",") if part]

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


def _formula_route(size: int, modulus_n: int, target_name: str | None,
                   constraints: dict):
    """A pure-formula value for this configuration, or None."""
    if target_name is None:
        return None
    cons = {p: c for p, c in constraints.items() if c.kind != "any"}
    if not cons and target_name in ("id", "neg-id"):
        sign = 1 if target_name == "id" else -1
        try:
            fact = crt.split(modulus_n)
            return crt.assemble_count(size, fact, sign, method="formula")
        except (ValueError, formulas.UnsupportedCase):
            return None
    two_adic = Modulus(modulus_n).two_adic
    if (list(cons.items()) == [(2, UNIT)] and two_adic is not None
            and target_name in TARGET_NAMES and size >= 2):
        try:
            return formulas.delta_value(size, two_adic, target_name)
        except formulas.UnsupportedCase:
            return None
    return None


def cmd_count(args) -> int:
    modulus = Modulus(args.modulus)
    target, target_name = _parse_target(args.target, modulus)
    constraints, constraint_text = _parse_constraint(args.constraint)
    spec = SetSpec(args.size, target, constraints)
    named = target_name if target_name in TARGET_NAMES else None
    started = time.perf_counter()
    method = args.method
    if method in ("auto", "formula"):
        value = _formula_route(args.size, args.modulus, named, constraints)
        if value is not None:
            method = "formula"
            count = int(value)
        elif method == "formula":
            raise formulas.UnsupportedCase("no formula covers this configuration")
        else:
            # Auto only picks the DP while the group stays small;
            # explicit --method dp is honored up to the enumeration cap.
            small_group = group_order(args.modulus) <= 5_000_000
            method = "dp" if (args.modulus <= ENUMERATION_CAP and small_group) else "brute"
    if method == "dp":
        count = counter.dp_count(spec)
    elif method == "brute":
        count = oracle.count(spec, "auto", args.budget)
    elif method != "formula":
        raise ValueError(f"unknown method {args.method!r}")
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


def _need(args, *names):
    values = []
    for name in names:
        value = getattr(args, name.replace("-", "_"))
        if value is None:
            raise ValueError(f"formula {args.name!r} needs --{name}")
        values.append(value)
    return values


def cmd_formula(args) -> int:
    name = args.name
    params: dict
    if name == "gauss-bracket":
        m, k = _need(args, "m", "k")
        value, params = formulas.gauss_bracket(m, k), {"m": m, "k": k}
    elif name == "gauss-binom2":
        m, k = _need(args, "m", "k")
        value, params = formulas.gauss_binom2(m, k), {"m": m, "k": k}
    elif name == "u-count":
        n, q, sign = _need(args, "n", "q", "sign")
        value, params = formulas.u_count(n, q, sign), {"n": n, "q": q, "sign": sign}
    elif name == "w4-ring4":
        n, sign = _need(args, "n", "sign")
        value, params = formulas.w4_ring4(n, sign), {"n": n, "sign": sign}
    elif name == "w-odd-2m":
        n_half, m, sign = _need(args, "n-half", "m", "sign")
        value = formulas.w_odd_2m(n_half, m, sign)
        params = {"n_half": n_half, "m": m, "sign": sign}
    elif name == "delta-closed":
        n, m, target = _need(args, "n", "m", "target")
        value, params = formulas.delta_closed_form(n, m, target), {"n": n, "m": m, "target": target}
    elif name == "delta-base":
        n, m, target = _need(args, "n", "m", "target")
        value, params = formulas.delta_base(n, m, target), {"n": n, "m": m, "target": target}
    elif name == "delta-recursion":
        prev, prev2, m = _need(args, "prev", "prev2", "m")
        value = formulas.delta_recursion(prev, prev2, m)
        params = {"prev": prev, "prev2": prev2, "m": m}
    elif name == "w4-2m":
        m, sign = _need(args, "m", "sign")
        value, params = formulas.w4_2m(m, sign), {"m": m, "sign": sign}
    elif name == "w-even-bounds":
        n_half, m, sign = _need(args, "n-half", "m", "sign")
        lower, upper = formulas.w_even_bounds(n_half, m, sign)
        _emit({"formula": name, "params": {"n_half": n_half, "m": m, "sign": sign},
               "lower": str(int(lower)), "upper": str(int(upper))})
        return 0
    elif name == "w8-even":
        (n_half,) = _need(args, "n-half")
        value, params = formulas.w8_even(n_half), {"n_half": n_half}
    elif name == "w8-odd":
        n_half, sign = _need(args, "n-half", "sign")
        value, params = formulas.w8_odd(n_half, sign), {"n_half": n_half, "sign": sign}
    elif name == "zero-pairs":
        (m,) = _need(args, "m")
        value, params = formulas.zero_pair_count(m), {"m": m}
    else:
        raise ValueError(f"unknown formula {name!r}")
    _emit({"formula": name, "params": params, "value": str(int(value))})
    return 0


# ---------------------------------------------------------------------------
# tables


ODD_W_PLUS_MODULI = (8, 16, 24, 32, 40)


def _odd_w_plus_cell(size: int, n: int) -> int:
    if size == 3:
        modulus = Modulus(n)
        spec = SetSpec(3, target_by_name("id", modulus))
        return oracle.count(spec, "mitm")
    return int(crt.assemble_count(size, crt.split(n), 1, method="formula"))


def _w8_cell(size: int) -> int:
    if size >= 4 and size % 2 == 0:
        return int(formulas.w8_even(size // 2))
    if size >= 5 and size % 2 == 1:
        return 2 * int(formulas.w8_odd((size - 1) // 2, 1))
    mod8 = Modulus(8)
    vec = counter.dp_vector(size, mod8)
    return vec.at(target_by_name("id", mod8)) + vec.at(target_by_name("neg-id", mod8))


def table_text(which: str, rows: list[int] | None = None) -> str:
    """The CSV body for one reference table (header + one line per row)."""
    if which == "odd-w-plus":
        rows = rows or [3, 5, 7, 9]
        if any(size % 2 == 0 or size < 3 for size in rows):
            raise ValueError("odd-w-plus rows must be odd sizes >= 3")
        lines = ["n," + ",".join(str(n) for n in ODD_W_PLUS_MODULI)]
        for size in rows:
            cells = [_odd_w_plus_cell(size, n) for n in ODD_W_PLUS_MODULI]
            lines.append(f"{size}," + ",".join(str(c) for c in cells))
    elif which == "w8":
        rows = rows or list(range(2, 11))
        if any(size < 2 for size in rows):
            raise ValueError("w8 rows must be sizes >= 2")
        lines = ["n,count"] + [f"{size},{_w8_cell(size)}" for size in rows]
    elif which in ("delta-id", "delta-s"):
        rows = rows or list(range(3, 11))
        if any(size < 3 for size in rows):
            raise ValueError("delta rows must be sizes >= 3")
        target = "id" if which == "delta-id" else "s"
        lines = ["n,count"]
        lines += [f"{size},{int(formulas.delta_value(size, 3, target))}" for size in rows]
    else:
        raise ValueError(f"unknown table {which!r}")
    return "\n".join(lines) + "\n"


def cmd_table(args) -> int:
    rows = _parse_ints(args.rows) if args.rows else None
    sys.stdout.write(table_text(args.which, rows))
    return 0


# ---------------------------------------------------------------------------
# verification suites


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def _suite_bijections(moduli: list[int], max_size: int | None,
                      budget: int | None) -> list[Check]:
    default_depth = {4: 8, 8: 6}
    checks = []
    for n in moduli:
        modulus = Modulus(n)
        depth = max_size or default_depth.get(n, 6)
        for tmap in maps.shipped_maps(modulus, depth):
            report = maps.verify_reciprocal(tmap, budget)
            detail = f"|domain|={report.domain_size}"
            if not report.ok:
                detail = f"{report.failure}; counterexample={report.counterexample}"
            checks.append(Check(report.map_name, report.ok, detail))
    return checks


def _suite_recursion(ms: list[int], sizes: list[int]) -> list[Check]:
    checks = []
    top = max(sizes)
    for m in ms:
        modulus = Modulus(1 << m)
        seq = counter.dp_vector_sequence(top, modulus, {2: UNIT})
        for name in TARGET_NAMES:
            target = target_by_name(name, modulus)
            series = [vec.at(target) for vec in seq]
            for size in sizes:
                if size < 5:
                    continue
                expected = int(formulas.delta_recursion(series[size - 1], series[size - 2], m))
                checks.append(Check(
                    f"recursion dp m={m} target={name} n={size}",
                    series[size] == expected,
                    f"{series[size]} vs {expected}"))
    for m in range(2, 7):
        for size in range(7, 41):
            for target in ("id", "s"):
                got = int(formulas.delta_closed_form(size, m, target))
                expected = int(formulas.delta_recursion(
                    formulas.delta_closed_form(size - 1, m, target),
                    formulas.delta_closed_form(size - 2, m, target), m))
                if got != expected:
                    checks.append(Check(
                        f"recursion formula m={m} target={target} n={size}", False,
                        f"{got} vs {expected}"))
    checks.append(Check("recursion formula identity m=2..6 n=7..40", True, "exact"))
    return checks


def _suite_bounds(ms: list[int], sizes: list[int] | None) -> list[Check]:
    default_sizes = {2: [6, 8, 10], 3: [6, 8]}
    checks = []
    for m in ms:
        modulus = Modulus(1 << m)
        for size in (sizes or default_sizes.get(m, [6, 8])):
            if size % 2 or size < 6:
                raise ValueError("bounds apply to even sizes >= 6")
            vec = counter.dp_vector(size, modulus)
            for sign, name in ((1, "id"), (-1, "neg-id")):
                lower, upper = formulas.w_even_bounds(size // 2, m, sign)
                got = vec.at(target_by_name(name, modulus))
                checks.append(Check(
                    f"bounds m={m} n={size} sign={'+' if sign == 1 else '-'}",
                    int(lower) <= got <= int(upper),
                    f"{int(lower)} <= {got} <= {int(upper)}"))
    return checks


def _suite_crt(sizes: list[int], budget: int | None) -> list[Check]:
    checks = []
    mod12 = Modulus(12)
    fact = crt.split(12)
    for size in sizes:
        for sign, name in ((1, "id"), (-1, "neg-id")):
            direct = counter.dp_count(SetSpec(size, target_by_name(name, mod12)))
            assembled = int(crt.assemble_count(size, fact, sign))
            checks.append(Check(
                f"crt count n={size} N=12 sign={'+' if sign == 1 else '-'}",
                direct == assembled, f"dp={direct} assembled={assembled}"))
    for size in [s for s in sizes if s <= 5]:
        for sign in (1, -1):
            report = maps.verify_reciprocal(crt.crt_split_bijection(size, 12, sign), budget)
            checks.append(Check(report.map_name, report.ok,
                                report.failure or f"|domain|={report.domain_size}"))
    return checks


def _suite_totality(moduli: list[int], sizes: list[int]) -> list[Check]:
    checks = []
    for n in moduli:
        modulus = Modulus(n)
        for size in sizes:
            vec = counter.dp_vector(size, modulus)
            checks.append(Check(f"totality dp N={n} n={size}",
                                vec.total() == n ** size,
                                f"{vec.total()} vs {n}^{size}"))
        for size in [s for s in sizes if n ** s <= 1 << 20]:
            hist = oracle.product_histogram(size, modulus)
            checks.append(Check(f"totality oracle N={n} n={size}",
                                sum(hist.values()) == n ** size, "bucketed walk"))
    return checks


def cmd_verify(args) -> int:
    suites = [args.suite] if args.suite != "all" else [
        "bijections", "recursion", "bounds", "crt", "totality"]
    moduli = _parse_ints(args.modulus) if args.modulus else [4, 8]
    ms = _parse_ints(args.m) if args.m else [2, 3]
    sizes = _parse_ints(args.sizes) if args.sizes else None
    checks: list[Check] = []
    for suite in suites:
        if suite == "bijections":
            checks += _suite_bijections(moduli, args.max_size, args.budget)
        elif suite == "recursion":
            checks += _suite_recursion(ms, sizes or list(range(5, 9)))
        elif suite == "bounds":
            checks += _suite_bounds(ms, sizes)
        elif suite == "crt":
            checks += _suite_crt(sizes or list(range(4, 8)), args.budget)
        elif suite == "totality":
            checks += _suite_totality(moduli if args.modulus else [3, 4, 8],
                                      sizes or list(range(1, 8)))
        else:
            raise ValueError(f"unknown suite {suite!r}")
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
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("formula", help="evaluate one closed-form expression")
    p.add_argument("--name", required=True, choices=[
        "gauss-bracket", "gauss-binom2", "u-count", "w4-ring4", "w-odd-2m",
        "delta-closed", "delta-base", "delta-recursion", "w4-2m",
        "w-even-bounds", "w8-even", "w8-odd", "zero-pairs"])
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
    p.add_argument("--suite", required=True,
                   choices=["bijections", "recursion", "bounds", "crt", "totality", "all"])
    p.add_argument("--modulus", default=None, help="moduli, e.g. 4,8")
    p.add_argument("--m", default=None, help="2-power exponents, e.g. 2,3")
    p.add_argument("--sizes", default=None, help="sizes, e.g. 5..10")
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
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
        return args.func(args)
    except USAGE_ERRORS as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
