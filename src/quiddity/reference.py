"""The bodies of the ``table`` and ``verify`` commands: their list and
range options, the reference tables as CSV, and the verification suites
with their checks.

Only those two commands import this module, so no other request compiles
it: ``cli`` parses their options and calls ``cmd_table`` or
``cmd_verify`` here.  Each suite imports the count sources it runs
(``counter``, ``crt``, ``oracle``, ``formulas``) and the bijection
harness ``maps`` itself.
"""

import sys
from collections import namedtuple

from .modring import Modulus
from .sl2 import Mat2, TARGET_NAMES, target_by_name


# ---------------------------------------------------------------------------
# the commands


def _parse_ints(text: str) -> list[int]:
    """Accept '4,8' or '5..10' (inclusive range) or a single integer."""
    text = text.strip()
    lo, is_range, hi = text.partition("..")
    try:
        values = (list(range(int(lo), int(hi) + 1)) if is_range
                  else [int(part) for part in text.split(",") if part])
    except ValueError:
        raise ValueError(f"{text!r} is neither an integer list nor a range; "
                         "want e.g. 3..10 or 3,5,7") from None
    if not values:
        raise ValueError(f"{text!r} selects no values; want e.g. 3..10 or 3,5,7")
    return values


def cmd_table(args) -> int:
    rows = _parse_ints(args.rows) if args.rows is not None else None
    sys.stdout.write(table_text(args.which, rows))
    return 0


def cmd_verify(args) -> int:
    moduli, sizes, ms = (_parse_ints(text) if text is not None else None
                         for text in (args.modulus, args.sizes, args.m))
    if ms is not None and min(ms) < 1:
        raise ValueError(f"--m must be >= 1, got {min(ms)}")
    return run_suites(args, moduli, sizes, ms)


# ---------------------------------------------------------------------------
# tables


ODD_W_PLUS_MODULI = (8, 16, 24, 32, 40)


def _odd_w_plus_cell(size: int, n: int) -> int:
    from . import crt, oracle
    from .spec import SetSpec

    if size == 3:
        return oracle.count(SetSpec(3, target_by_name("id", Modulus(n))))
    return int(crt.assemble_count(size, crt.split(n), 1, method="formula"))


def _w8_cell(size: int) -> int:
    from . import formulas

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
    from . import formulas

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


# ---------------------------------------------------------------------------
# verification suites


Check = namedtuple("Check", "name ok detail", defaults=("",))


def _suite_bijections(moduli: list[int], max_size: int | None,
                      budget: int | None) -> list[Check]:
    if max_size is not None and max_size < 3:
        raise ValueError(f"--max-size must be >= 3 (the smallest shipped map), got {max_size}")
    from . import maps
    from .spec import _admit

    default_depth = {4: 8, 8: 6}
    batteries = [(Modulus(n), default_depth.get(n, 6) if max_size is None else max_size)
                 for n in moduli]
    # every battery is charged before any is built
    for modulus, depth in batteries:
        _admit(maps.battery_cost(modulus, depth), budget)
    checks = []
    for modulus, depth in batteries:
        battery = maps.shipped_maps(modulus, depth)[::-1]
        while battery:  # each map, and the sets only it holds, is freed once verified
            report = maps.verify_reciprocal(battery.pop(), budget)
            checks.append(Check(report.map_name, report.ok, report.detail))
    return checks


def _suite_recursion(ms: list[int], sizes: list[int], budget: int | None) -> list[Check]:
    sizes = [size for size in sizes if size >= 5]
    if not sizes:
        raise ValueError("recursion checks need a size >= 5")
    from . import counter, formulas
    from .spec import UNIT

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
    from . import counter, formulas

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
    from .spec import SetSpec

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
        for name in ("id", "neg-id"):
            tmap = crt.crt_split_bijection(SetSpec(size, target_by_name(name, mod12)))
            report = maps.verify_reciprocal(tmap, budget)
            checks.append(Check(report.map_name, report.ok, report.detail))
    return checks


def _suite_totality(moduli: list[int], sizes: list[int],
                    budget: int | None) -> list[Check]:
    from . import counter, oracle

    checks = []
    for n in moduli:
        modulus = Modulus(n)
        vecs = {}
        for size in sizes:
            vec = vecs[size] = counter.dp_vector(size, modulus, budget=budget)
            checks.append(Check(f"totality dp N={n} n={size}",
                                vec.total() == n ** size,
                                f"{vec.total()} vs {n}^{size}"))
        # the DP is read at each bucket's matrix, made once per group element
        mats: dict[int, Mat2] = {}
        for size in [s for s in sizes if n ** s <= 1 << 20]:
            buckets = oracle._product_buckets(size, modulus, budget=budget)
            for key in buckets.keys() - mats.keys():
                mats[key] = Mat2.from_key(key, modulus)
            at = vecs[size].at
            checks.append(Check(f"totality oracle N={n} n={size}",
                                sum(buckets.values()) == n ** size
                                and all(at(mats[key]) == times for key, times in buckets.items()),
                                "bucketed walk"))
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


def run_suites(args, moduli: list[int] | None, sizes: list[int] | None,
               ms: list[int] | None) -> int:
    """Run args.suite (every suite, in order, for ``all``) and print its
    report: one line per check, then the tally; 1 if any check failed,
    else 0.

    The report is written once, after every suite has run: with stdout
    unbuffered (PYTHONUNBUFFERED, or a terminal's line buffering) each
    write is a system call, and the Z/16Z battery alone has 2,127 lines.
    """
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    checks: list[Check] = []
    for suite in suites:
        checks += SUITES[suite](args, moduli, sizes, ms or [2, 3])
    passed = sum(1 for check in checks if check.ok)
    lines = [f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else "")
             for name, ok, detail in checks]
    lines.append(f"{passed}/{len(checks)} checks passed\n")
    sys.stdout.write("\n".join(lines))
    return 0 if passed == len(checks) else 1
