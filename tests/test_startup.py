"""What a fresh interpreter loads for ``import quiddity`` and for each kind
of CLI request.

Every CLI call starts a new interpreter, so a module a command never runs
still costs its import on every call.  Each check runs in its own
subprocess and compares sys.modules before and after.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quiddity

SRC = str(Path(quiddity.__file__).resolve().parents[1])

# Run in the child: import quiddity, read the public names given after the
# request, optionally run one CLI request with its output and errors
# captured, and report the modules that appeared meanwhile.
PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
import quiddity
for name in sys.argv[2:]:
    getattr(quiddity, name)
argv = json.loads(sys.argv[1])
code, out, err = None, io.StringIO(), io.StringIO()
if argv:
    from quiddity import cli
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
print(json.dumps({"code": code, "out": out.getvalue(), "err": err.getvalue(),
                  "loaded": sorted(set(sys.modules) - before)}))
"""

HEAVY = {"dataclasses", "inspect", "quiddity.maps"}


def probe(*argv, names=()) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv), *names],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_import_quiddity_loads_no_submodule():
    loaded = probe()["loaded"]
    assert "quiddity" in loaded
    assert not [name for name in loaded if name.startswith("quiddity.")]


def test_the_set_spec_loads_without_the_oracle():
    # SetSpec's home is spec, so reading it leaves the oracle's walkers unloaded
    loaded = probe(names=("SetSpec",))["loaded"]
    assert "quiddity.spec" in loaded
    assert "quiddity.oracle" not in loaded


# The count source each route takes.  Without bytecode caching every module
# a request loads is compiled again; formulas stays on exact ints, so no
# route pulls in fractions, decimal or numbers.
SOURCE = {"dp": "quiddity.counter", "brute": "quiddity.oracle", "formula": "quiddity.formulas"}
DP_COUNT = ("count", "--modulus", "8", "--size", "6", "--target", "s")
BRUTE_COUNT = ("count", "--modulus", "8", "--size", "6", "--target", "s", "--method", "brute")
FORMULA_COUNT = ("count", "--modulus", "8", "--size", "7", "--target", "id")


@pytest.mark.parametrize("argv, method", [(DP_COUNT, "dp"), (FORMULA_COUNT, "formula")])
def test_a_count_loads_neither_the_harness_nor_dataclasses(argv, method):
    report = probe(*argv)
    assert report["code"] == 0
    assert json.loads(report["out"])["method"] == method
    assert SOURCE[method] in report["loaded"]
    assert not HEAVY & set(report["loaded"])


@pytest.mark.parametrize("argv, method", [
    (DP_COUNT, "dp"), (BRUTE_COUNT, "brute"), (FORMULA_COUNT, "formula")])
def test_a_count_loads_only_the_source_its_route_takes(argv, method):
    report = probe(*argv)
    assert json.loads(report["out"])["method"] == method
    loaded = set(report["loaded"])
    assert {"quiddity.spec", "quiddity.crt"} <= loaded
    assert loaded & set(SOURCE.values()) == {SOURCE[method]}
    assert not {"fractions", "decimal", "numbers"} & loaded


@pytest.mark.parametrize("argv, loads", [
    (("table", "--which", "delta-s", "--rows", "3"), True),
    (("verify", "--suite", "totality", "--modulus", "3", "--sizes", "2"), True),
    (DP_COUNT, False),
    (FORMULA_COUNT, False),
    (("formula", "--name", "w8-even", "--n-half", "2"), False),
    (("crt", "--modulus", "12", "--size", "5"), False),
], ids=["table", "verify", "count-dp", "count-formula", "formula", "crt"])
def test_only_table_and_verify_load_their_bodies(argv, loads):
    report = probe(*argv)
    assert report["code"] == 0
    assert ("quiddity.reference" in report["loaded"]) == loads


def test_the_crt_suite_loads_the_harness_on_demand():
    report = probe("verify", "--suite", "crt", "--sizes", "4,5")
    assert report["code"] == 0
    assert report["out"].count("PASS crt-split") == 4
    assert report["out"].endswith("8/8 checks passed\n")
    assert "quiddity.maps" in report["loaded"]


COUNTING = {"quiddity.counter", "quiddity.crt", "quiddity.oracle"}


def test_a_formula_loads_no_counting_module():
    report = probe("formula", "--name", "w-odd-2m", "--n-half", "3", "--m", "3", "--sign", "+")
    assert report["code"] == 0
    assert json.loads(report["out"])["formula"] == "w-odd-2m"
    assert "quiddity.formulas" in report["loaded"]
    assert not COUNTING & set(report["loaded"])


def test_usage_errors_exit_two_with_or_without_the_oracle_loaded():
    # A formula's bad request never loads the oracle; a brute count past
    # its budget raises the oracle's BudgetExceeded, a ValueError too.
    report = probe("formula", "--name", "u-count", "--n", "5")
    assert (report["code"], report["err"]) == (2, "error: formula 'u-count' needs --q\n")
    assert "quiddity.oracle" not in report["loaded"]
    report = probe("count", "--modulus", "8", "--size", "6", "--method", "brute",
                   "--budget", "10")
    assert (report["code"], report["err"]) == (
        2, "error: enumeration needs 576 candidates, budget is 10\n")
    assert "quiddity.oracle" in report["loaded"]
