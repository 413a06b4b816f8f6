"""Seeded request lists for the benchmark workloads, and the output checks.

A workload is a fixed list of request slots.  The seed draws each slot's
target, and where a slot offers a choice, its crt/formula request; then it
orders the list.  These draws leave what a slot costs nearly unchanged: DP
and oracle cost depend on modulus, size and constraint, not on the target.
An oracle slot's constraints can differ in cost by a tenth or more, so such
a slot runs each of its constraints in turn, one per repeat, in an order the
seed draws; with an even number of repeats every run makes each choice
equally often.  So runs with different seeds are comparable.

A run repeats its list several times, each time in a fresh order.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ANSWERS_FILE = HERE / "answers.json"

WORKLOADS = ("dp-sweep", "oracle-brute", "verify-battery")

# Time of one repeat of the list, calibration probes included, on the
# reference machine (2 cores, Python 3.11).  A run makes round(seconds /
# nominal) repeats, so the request count is fixed by --seconds, not by how
# fast the machine happens to be.
NOMINAL_LIST_S = {"dp-sweep": 14.7, "oracle-brute": 13.4, "verify-battery": 11.6}

NAMED_TARGETS = ("s", "neg-s", "t", "neg-t")
EXPLICIT_TARGETS = ("2,1,1,1", "3,1,2,1")
TARGETS = NAMED_TARGETS + EXPLICIT_TARGETS

DP_MODULI = (12, 16, 20, 24, 28, 32, 36, 40)
DP_SIZES = tuple(range(6, 11))
DP_CONSTRAINTS = ("none", "a2-unit", "a3-nonunit", "a1=1", "a4=0")

# (modulus, size, constraint): count --method auto takes the DP route.
DP_SLOTS = (
    (12, 6, "none"), (12, 8, "a3-nonunit"), (12, 9, "a1=1"), (12, 10, "a4=0"),
    (16, 6, "a1=1"), (16, 8, "a3-nonunit"), (16, 9, "none"),
    (20, 7, "a1=1"), (20, 9, "none"), (20, 10, "a2-unit"),
    (24, 6, "a2-unit"), (24, 8, "a4=0"), (24, 10, "a3-nonunit"),
    (28, 7, "none"), (28, 9, "a1=1"),
    (32, 8, "a4=0"),
    (36, 7, "a3-nonunit"),
    (40, 6, "none"),
)
# a2-unit at a named target over a 2-power takes the closed form: these are
# 4 of the 22 requests, about one in five.
FORMULA_SLOTS = ((16, 7), (16, 10), (32, 6), (32, 10))

# (modulus, size, constraint menu): count --method brute.  Size 5, or size 6
# with a fixed entry, leaves fewer than six free positions, so the oracle
# walks every candidate; the rest are meet-in-the-middle joins.
BRUTE_SLOTS = (
    (11, 5, ("none",)),
    (12, 5, ("none",)),
    (14, 5, ("none",)),
    (16, 5, ("a2-unit", "a3-nonunit")),
    (10, 6, ("a1=1", "a4=0")),
    (12, 6, ("a1=1", "a4=0")),
    (14, 6, ("a1=1", "a4=0")),
    (12, 10, ("none",)),
    (16, 9, ("none",)),
    (16, 10, ("none",)),
    (18, 9, ("none",)),
    (20, 8, ("none",)),
    (22, 8, ("none",)),
    (24, 8, ("none",)),
    (26, 7, ("none",)),
    (28, 7, ("none",)),
    (28, 8, ("none",)),
    (30, 7, ("none",)),
    (32, 7, ("a2-unit", "a2-nonunit")),
    (32, 8, ("a2-unit", "a2-nonunit")),
)

VERIFY_FIXED = (
    ("verify", "--suite", "bijections", "--modulus", "4", "--max-size", "8"),
    ("verify", "--suite", "bijections", "--modulus", "8", "--max-size", "6"),
    ("verify", "--suite", "bijections", "--modulus", "16", "--max-size", "5"),
    ("verify", "--suite", "recursion"),
    ("verify", "--suite", "bounds"),
    ("verify", "--suite", "crt"),
    ("verify", "--suite", "totality"),
)
GOLDEN_TABLES = {
    "odd-w-plus": "odd_w_plus.csv",
    "w8": "w8.csv",
    "delta-id": "delta_id.csv",
    "delta-s": "delta_s.csv",
}
CRT_MENU = tuple(
    ("crt", "--modulus", str(n), "--size", str(size), "--sign", sign, "--method", method)
    for n, size, method in (
        (12, 5, "auto"), (12, 6, "auto"), (20, 7, "auto"), (24, 6, "auto"),
        (24, 8, "auto"), (40, 5, "auto"), (60, 6, "auto"), (12, 5, "brute"))
    for sign in ("+", "-"))
FORMULA_MENU = tuple(
    [("formula", "--name", "w-odd-2m", "--n-half", str(h), "--m", str(m), "--sign", sign)
     for h, m in ((2, 2), (3, 3), (4, 2), (2, 4)) for sign in ("+", "-")]
    + [("formula", "--name", "u-count", "--n", str(n), "--q", str(q), "--sign", sign)
       for n, q in ((5, 5), (6, 7), (8, 3), (7, 5)) for sign in ("+", "-")])
CRT_DRAWN, FORMULA_DRAWN = 5, 6

VERIFY_LINE = re.compile(r"(\d+)/(\d+) checks passed")


@dataclass(frozen=True)
class Request:
    """One CLI call; ``key`` names its expected answer or golden file."""

    argv: tuple[str, ...]
    kind: str  # "count", "crt", "formula", "table" or "verify"
    key: str = ""


def count_key(n: int, size: int, target: str, constraint: str) -> str:
    return f"{n}/{size}/{target}/{constraint}"


def count_request(n: int, size: int, target: str, constraint: str, method: str) -> Request:
    argv = ("count", "--modulus", str(n), "--size", str(size), "--target", target,
            "--constraint", constraint, "--method", method)
    return Request(argv, "count", count_key(n, size, target, constraint))


# A maker returns the workload's slots, each a tuple of the requests that
# take turns in it from one repeat to the next.

def _dp_sweep(rng: random.Random) -> list[tuple[Request, ...]]:
    out = [count_request(n, size, rng.choice(TARGETS), constraint, "auto")
           for n, size, constraint in DP_SLOTS]
    out += [count_request(n, size, rng.choice(NAMED_TARGETS), "a2-unit", "auto")
            for n, size in FORMULA_SLOTS]
    return [(r,) for r in out]


def _oracle_brute(rng: random.Random) -> list[tuple[Request, ...]]:
    return [tuple(count_request(n, size, rng.choice(TARGETS), constraint, "brute")
                  for constraint in rng.sample(menu, len(menu)))
            for n, size, menu in BRUTE_SLOTS]


def _verify_battery(rng: random.Random) -> list[tuple[Request, ...]]:
    out = [Request(argv, "verify", " ".join(argv)) for argv in VERIFY_FIXED]
    out += [Request(("table", "--which", which), "table", name)
            for which, name in GOLDEN_TABLES.items()]
    out += [Request(argv, "crt", " ".join(argv)) for argv in rng.sample(CRT_MENU, CRT_DRAWN)]
    out += [Request(argv, "formula", " ".join(argv))
            for argv in rng.sample(FORMULA_MENU, FORMULA_DRAWN)]
    return [(r,) for r in out]


_LIST_MAKERS = {
    "dp-sweep": _dp_sweep,
    "oracle-brute": _oracle_brute,
    "verify-battery": _verify_battery,
}


def repeats_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds / NOMINAL_LIST_S[workload]))


def request_orders(workload: str, seed: int, repeats: int) -> tuple[list[Request], list[list[int]]]:
    """Every request the seed draws, and the order of each repeat as indices
    into them: repeat j runs each slot's request number j modulo its turns."""
    rng = random.Random(f"{workload}:{seed}")
    slots = _LIST_MAKERS[workload](rng)
    requests, firsts = [], []
    for slot in slots:
        firsts.append(len(requests))
        requests.extend(slot)
    orders = []
    for j in range(repeats):
        picks = [first + j % len(slot) for first, slot in zip(firsts, slots)]
        orders.append(rng.sample(picks, len(picks)))
    return requests, orders


def grid_count_entries() -> list[tuple[int, int, str, str]]:
    """Every (modulus, size, target, constraint) a count request can draw,
    and the rest of the DP grid, kept as a differential test set."""
    entries = {(n, size, t, c) for n in DP_MODULI for size in DP_SIZES
               for t in TARGETS for c in DP_CONSTRAINTS}
    entries |= {(n, size, t, c) for n, size, menu in BRUTE_SLOTS
                for t in TARGETS for c in menu}
    return sorted(entries)


def drawable_count_keys() -> set[str]:
    """Answer-table keys of every count request a run can draw."""
    keys = {count_key(n, size, t, c) for n, size, c in DP_SLOTS for t in TARGETS}
    keys |= {count_key(n, size, t, "a2-unit") for n, size in FORMULA_SLOTS for t in NAMED_TARGETS}
    keys |= {count_key(n, size, t, c) for n, size, menu in BRUTE_SLOTS
             for t in TARGETS for c in menu}
    return keys


def load_answers() -> dict[str, str]:
    """Expected output per request key: a decimal value, or for a verify
    request the number of checks it runs."""
    with open(ANSWERS_FILE) as fh:
        doc = json.load(fh)
    answers = {key: entry["value"] for key, entry in doc["entries"].items()}
    answers.update((key, str(k)) for key, k in doc["verify_checks"].items())
    return answers


def check(request: Request, code: int, stdout: bytes, answers: dict[str, str],
          golden: dict[str, bytes]) -> tuple[bool, str | None]:
    """Whether the output is correct, and the route a count request took."""
    if code != 0:
        return False, None
    if request.kind == "table":
        return stdout == golden[request.key], None
    text = stdout.decode(errors="replace").strip()
    last = text.rsplit("\n", 1)[-1]
    if request.kind == "verify":
        m = VERIFY_LINE.fullmatch(last)
        return bool(m) and m.group(1) == m.group(2) == answers[request.key], None
    try:
        report = json.loads(last)
    except ValueError:
        return False, None
    field = "value" if request.kind == "formula" else "count"
    return report.get(field) == answers[request.key], report.get("method")
