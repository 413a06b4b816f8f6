"""Regenerate perfbench/answers.json, the expected outputs of every request
the workloads can draw, plus the rest of the DP grid as a differential set.

Each value comes from the transfer-matrix DP.  A second, independent source
confirms it where one is in reach: the brute-force oracle, within its
default budget for count entries a run can draw and within ORACLE_CAP
candidates for the rest, and the closed form (or CRT assembly) where one
covers the entry.  Sources that disagree stop the script before it writes.
Entries that only the DP confirms are listed under "single_source" and
printed.  The number of checks each fixed verify request runs is recorded
under "verify_checks", so that a suite that silently drops checks fails.

    python3 perfbench/make_answers.py
"""

from __future__ import annotations

import contextlib
import io
import json
import multiprocessing
import os
import re
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from quiddity import cli, counter, crt, formulas, oracle  # noqa: E402
from quiddity.modring import Modulus  # noqa: E402
from quiddity.oracle import NONUNIT, UNIT, SetSpec, fixed  # noqa: E402
from quiddity.sl2 import Mat2, target_by_name  # noqa: E402

import workloads  # noqa: E402

# Most candidates the oracle may examine for an entry no run can draw.
ORACLE_CAP = 1 << 22


def parse_constraint(text: str) -> dict:
    if text == "none":
        return {}
    m = re.fullmatch(r"a(\d+)(-unit|-nonunit|=(-?\d+))", text)
    kind = UNIT if m.group(2) == "-unit" else NONUNIT if m.group(2) == "-nonunit" else None
    return {int(m.group(1)): kind or fixed(int(m.group(3)))}


def parse_target(text: str, modulus: Modulus) -> Mat2:
    if text in workloads.NAMED_TARGETS or text in ("id", "neg-id"):
        return target_by_name(text, modulus)
    return Mat2(*(int(v) for v in text.split(",")), modulus)


def oracle_count(task):
    """The oracle's count for one entry, or None past the candidate cap
    (None as the cap means the oracle's default budget)."""
    key, n, size, target, constraint, cap = task
    modulus = Modulus(n)
    spec = SetSpec(size, parse_target(target, modulus), parse_constraint(constraint))
    try:
        return key, oracle.count(spec, "auto", cap)
    except oracle.BudgetExceeded:
        return key, None


def dp_counts(entries) -> dict[str, int]:
    """One DP pass per (modulus, constraint) serves every size and target."""
    groups = defaultdict(list)
    for n, size, target, constraint in entries:
        groups[n, constraint].append((size, target))
    out = {}
    for (n, constraint), cells in sorted(groups.items()):
        modulus = Modulus(n)
        seq = counter.dp_vector_sequence(max(s for s, _ in cells), modulus,
                                         parse_constraint(constraint))
        for size, target in cells:
            key = workloads.count_key(n, size, target, constraint)
            out[key] = seq[size].at(parse_target(target, modulus))
    return out


def closed_form_count(n: int, size: int, target: str, constraint: str) -> int | None:
    if (constraint == "a2-unit" and target in workloads.NAMED_TARGETS
            and n & (n - 1) == 0):
        return int(formulas.delta_value(size, n.bit_length() - 1, target))
    return None


def option(argv, name):
    return argv[argv.index(name) + 1]


def request_entries():
    """(key, dp value, closed-form value, oracle task) for crt/formula requests."""
    out = []
    for argv in workloads.CRT_MENU + workloads.FORMULA_MENU:
        sign = option(argv, "--sign")
        if argv[0] == "crt":
            n, size = int(option(argv, "--modulus")), int(option(argv, "--size"))
            closed = int(crt.assemble_count(size, crt.split(n), sign))
        elif option(argv, "--name") == "w-odd-2m":
            h, m = int(option(argv, "--n-half")), int(option(argv, "--m"))
            n, size = 1 << m, 2 * h + 1
            closed = int(formulas.w_odd_2m(h, m, sign))
        else:
            n, size = int(option(argv, "--q")), int(option(argv, "--n"))
            closed = int(formulas.u_count(size, n, sign))
        target = "id" if sign == "+" else "neg-id"
        spec = SetSpec(size, target_by_name(target, Modulus(n)))
        out.append((" ".join(argv), counter.dp_count(spec), closed, (n, size, target)))
    return out


def verify_checks() -> dict[str, int]:
    """The number of checks each fixed verify request runs; all must pass."""
    out = {}
    for argv in workloads.VERIFY_FIXED:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(list(argv))
        last = stdout.getvalue().strip().rsplit("\n", 1)[-1]
        m = workloads.VERIFY_LINE.fullmatch(last)
        if code != 0 or not m or m.group(1) != m.group(2):
            raise SystemExit(f"{' '.join(argv)}: exit {code}, {last!r}")
        out[" ".join(argv)] = int(m.group(2))
    return out


def main() -> int:
    grid = workloads.grid_count_entries()
    drawable = workloads.drawable_count_keys()
    values = dp_counts(grid)
    sources = {key: ["dp"] for key in values}
    tasks = []
    for n, size, target, constraint in grid:
        key = workloads.count_key(n, size, target, constraint)
        closed = closed_form_count(n, size, target, constraint)
        if closed is not None:
            if closed != values[key]:
                raise SystemExit(f"{key}: dp {values[key]} != closed form {closed}")
            sources[key].append("formula")
        cap = None if key in drawable else ORACLE_CAP
        tasks.append((key, n, size, target, constraint, cap))
    for key, dp_value, closed, (n, size, target) in request_entries():
        if closed != dp_value:
            raise SystemExit(f"{key}: dp {dp_value} != closed form {closed}")
        values[key], sources[key] = dp_value, ["dp", "formula"]
        tasks.append((key, n, size, target, "none", ORACLE_CAP))

    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(len(os.sched_getaffinity(0))) as pool:
        for done, (key, value) in enumerate(pool.imap_unordered(oracle_count, tasks), 1):
            if value is not None:
                if value != values[key]:
                    raise SystemExit(f"{key}: dp {values[key]} != oracle {value}")
                sources[key].append("oracle")
            if done % 200 == 0:
                print(f"{done}/{len(tasks)} oracle checks", file=sys.stderr)

    single = sorted(key for key, src in sources.items() if len(src) < 2)
    doc = {
        "about": "Expected outputs of every benchmark request; "
                 "regenerate with python3 perfbench/make_answers.py",
        "oracle_cap": ORACLE_CAP,
        "entries": {key: {"value": str(values[key]), "sources": sources[key]}
                    for key in sorted(values)},
        "single_source": single,
        "verify_checks": verify_checks(),
    }
    with open(workloads.ANSWERS_FILE, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"{len(values)} entries, {len(values) - len(single)} with a second source, "
          f"{len(single)} single-source:")
    for key in single:
        print(f"  {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
