"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Reference values are frozen from the published tables; every count is an
exact integer and every comparison is exact.  Runtime limits are asserted
where the criterion states one.
"""

import time

from quiddity import crt, formulas
from quiddity.counter import dp_count, dp_vector, dp_vector_sequence
from quiddity.maps import FiberSet
from quiddity.modring import Modulus, units_of
from quiddity.oracle import SetSpec, UNIT, count, fixed, product_histogram
from quiddity.reference import _suite_bijections, table_text
from quiddity.sl2 import TARGET_NAMES, identity, neg_identity, target_by_name

MOD8 = Modulus(8)

ODD_W_PLUS = {
    (3, 8): 1, (3, 16): 1, (3, 24): 1, (3, 32): 1, (3, 40): 1,
    (5, 8): 80, (5, 16): 320, (5, 24): 800, (5, 32): 1280, (5, 40): 2080,
    (7, 8): 5376, (7, 16): 86016, (7, 24): 489216,
    (7, 32): 1376256, (7, 40): 3499776,
    (9, 8): 348160, (9, 16): 22282240, (9, 24): 285491200,
    (9, 32): 1426063360, (9, 40): 5666652160,
}

W8_TOTALS = {2: 1, 3: 2, 4: 28, 5: 160, 6: 1440, 7: 10752,
             8: 88320, 9: 696320, 10: 5605376}

DELTA_ID = {3: 1, 4: 4, 5: 48, 6: 320, 7: 2816, 8: 21504,
            9: 176128, 10: 1392640}
DELTA_S = {3: 0, 4: 8, 5: 32, 6: 384, 7: 2560, 8: 22528,
           9: 172032, 10: 1409024}


def _report(criterion: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def _parse_table(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.strip().split("\n")]


def test_criterion_01_odd_size_table():
    started = time.perf_counter()
    rows = _parse_table(table_text("odd-w-plus"))
    elapsed = time.perf_counter() - started
    header, body = rows[0], rows[1:]
    moduli = [int(n) for n in header[1:]]
    got = {}
    for row in body:
        size = int(row[0])
        for n, cell in zip(moduli, row[1:]):
            got[(size, n)] = int(cell)
    ok = got == ODD_W_PLUS and elapsed < 1.0
    _report("criterion 1: odd-size table, 20 entries",
            ok, f"all exact, {elapsed * 1000:.0f} ms")


def test_criterion_02_w8_table_with_oracle_and_dp_confirmation():
    rows = _parse_table(table_text("w8"))
    table = {int(size): int(value) for size, value in rows[1:]}
    exact = table == W8_TOTALS

    dp_started = time.perf_counter()
    dp_ok = True
    for size in range(2, 9):
        vec = dp_vector(size, MOD8)
        total = vec.at(identity(MOD8)) + vec.at(neg_identity(MOD8))
        dp_ok = dp_ok and total == W8_TOTALS[size]
    dp_elapsed = time.perf_counter() - dp_started

    oracle_started = time.perf_counter()
    oracle_ok = True
    for size in range(2, 7):
        total = (count(SetSpec(size, identity(MOD8)))
                 + count(SetSpec(size, neg_identity(MOD8))))
        oracle_ok = oracle_ok and total == W8_TOTALS[size]
    oracle_elapsed = time.perf_counter() - oracle_started

    ok = exact and dp_ok and oracle_ok and dp_elapsed < 10 and oracle_elapsed < 60
    _report("criterion 2: w8 table sizes 2..10", ok,
            f"formula exact, dp<=8 in {dp_elapsed:.2f}s, oracle<=6 in {oracle_elapsed:.2f}s")


def test_criterion_03_delta_tables():
    id_rows = {int(s): int(v) for s, v in _parse_table(table_text("delta-id"))[1:]}
    s_rows = {int(s): int(v) for s, v in _parse_table(table_text("delta-s"))[1:]}
    formula_ok = id_rows == DELTA_ID and s_rows == DELTA_S
    seq = dp_vector_sequence(8, MOD8, {2: UNIT})
    dp_ok = all(
        seq[size].at(target_by_name("id", MOD8)) == DELTA_ID[size]
        and seq[size].at(target_by_name("s", MOD8)) == DELTA_S[size]
        for size in range(3, 9))
    _report("criterion 3: unit-second-entry tables", formula_ok and dp_ok,
            "formula rows 3..10, dp rows 3..8")


def test_criterion_04_base_cases_by_oracle():
    ok = True
    for m in (2, 3, 4):
        mod = Modulus(1 << m)
        plus = count(SetSpec(4, identity(mod)))
        minus = count(SetSpec(4, neg_identity(mod)))
        ok = ok and plus == (m + 2) * 2 ** (m - 1) == int(formulas.w4_2m(m, 1))
        ok = ok and minus == 2 ** m == int(formulas.w4_2m(m, -1))
    lam1 = count(SetSpec(5, identity(MOD8), {2: fixed(1)}))
    lam3 = count(SetSpec(5, identity(MOD8), {2: fixed(3)}))
    ok = ok and lam1 == 20 and lam3 == 8
    _report("criterion 4: size-4 counts and pinned-entry values", ok,
            f"m=2,3,4 and fixed-entry counts {lam1}/{lam3}")


def test_criterion_05_recursion_identity():
    dp_ok = True
    for m in (2, 3):
        mod = Modulus(1 << m)
        seq = dp_vector_sequence(8, mod, {2: UNIT})
        for name in TARGET_NAMES:
            series = [vec.at(target_by_name(name, mod)) for vec in seq]
            for size in range(5, 9):
                expected = 2 ** (m - 1) * series[size - 1] + 2 ** (2 * m - 1) * series[size - 2]
                dp_ok = dp_ok and series[size] == expected
    formula_ok = True
    for m in range(2, 7):
        for target in ("id", "s"):
            for size in range(7, 41):
                formula_ok = formula_ok and (
                    formulas.delta_closed_form(size, m, target)
                    == formulas.delta_recursion(
                        formulas.delta_closed_form(size - 1, m, target),
                        formulas.delta_closed_form(size - 2, m, target), m))
    _report("criterion 5: two-term recursion", dp_ok and formula_ok,
            "dp n=5..8 (m=2,3, six targets), formula n=7..40 (m=2..6)")


def test_criterion_06_sandwich_bounds():
    ok = True
    details = []
    for m, size in ((2, 6), (2, 8), (2, 10), (3, 6), (3, 8)):
        mod = Modulus(1 << m)
        vec = dp_vector(size, mod)
        for sign, name in ((1, "id"), (-1, "neg-id")):
            lower, upper = formulas.w_even_bounds(size // 2, m, sign)
            got = vec.at(target_by_name(name, mod))
            ok = ok and int(lower) <= got <= int(upper)
        details.append(f"(m={m},n={size})")
    _report("criterion 6: even-size sandwich bounds", ok, " ".join(details))


def test_criterion_07_crt_assembly():
    started = time.perf_counter()
    mod12 = Modulus(12)
    fact12 = crt.split(12)
    ok = True
    for size in range(4, 8):
        vec = dp_vector(size, mod12)
        ok = ok and vec.at(identity(mod12)) == int(crt.assemble_count(size, fact12, 1))
        ok = ok and vec.at(neg_identity(mod12)) == int(crt.assemble_count(size, fact12, -1))
    elapsed = time.perf_counter() - started
    for n in (24, 40):
        fact = crt.split(n)
        for size in (5, 7, 9):
            ok = ok and int(crt.assemble_count(size, fact, 1)) == ODD_W_PLUS[(size, n)]
    ok = ok and elapsed < 5
    _report("criterion 7: CRT assembly", ok,
            f"Z/12Z dp match in {elapsed:.2f}s; table values at N=24,40")


def test_criterion_08_bijection_battery():
    checks = _suite_bijections([4, 8], None, None)
    failures = [c for c in checks if not c.ok]
    fibers_ok = all(len(FiberSet(MOD8, x).members()) == 32 for x in units_of(MOD8))
    insertion_ok = (dp_count(SetSpec(6, identity(MOD8), {2: UNIT}))
                    == 4 * dp_count(SetSpec(5, identity(MOD8))))
    ok = not failures and fibers_ok and insertion_ok
    detail = f"{len(checks)} map checks"
    if failures:
        detail = failures[0].name + ": " + failures[0].detail
    _report("criterion 8: bijection round trips", ok, detail)


def test_criterion_09_prime_field_formulas():
    started = time.perf_counter()
    ok = True
    for p in (3, 5):
        mod = Modulus(p)
        for size in (5, 6, 7):
            plus = count(SetSpec(size, identity(mod)))
            minus = count(SetSpec(size, neg_identity(mod)))
            ok = ok and plus == int(formulas.u_count(size, p, 1))
            ok = ok and minus == int(formulas.u_count(size, p, -1))
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60
    _report("criterion 9: prime-field counts", ok,
            f"F3 and F5 sizes 5..7 both signs in {elapsed:.2f}s")


def test_criterion_10_property_suites():
    totality_ok = True
    for n in (3, 4, 8, 12):
        mod = Modulus(n)
        for size in range(1, 8):
            totality_ok = totality_ok and dp_vector(size, mod).total() == n ** size
    for n in (3, 4, 8):
        mod = Modulus(n)
        hist = product_histogram(4, mod)
        totality_ok = totality_ok and sum(hist.values()) == n ** 4

    symmetry_ok = True
    for n in (3, 4, 8, 12):
        mod = Modulus(n)
        for size in (3, 5, 7):
            vec = dp_vector(size, mod)
            symmetry_ok = symmetry_ok and vec.at(identity(mod)) == vec.at(neg_identity(mod))

    exact_ok = True
    try:
        for m in range(2, 7):
            for size in range(5, 41):
                formulas.delta_closed_form(size, m, "id")
                formulas.delta_closed_form(size, m, "s")
            for n_half in range(2, 21):
                formulas.w_odd_2m(n_half, m, 1)
            for n_half in range(3, 13):
                formulas.w_even_bounds(n_half, m, 1)
        for n_half in range(2, 21):
            formulas.w8_even(n_half)
            formulas.w8_odd(n_half, 1)
        for size in range(3, 42):
            formulas.w4_ring4(size, 1)
    except formulas.InexactResult:  # pragma: no cover - must not happen
        exact_ok = False

    ok = totality_ok and symmetry_ok and exact_ok
    _report("criterion 10: totality, sign symmetry, exactness", ok,
            "sums N^n, odd-size sign symmetry, no inexact division on the grid")
