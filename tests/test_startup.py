"""What a fresh interpreter loads for ``import quiddity`` and for each kind
of CLI request.

Every CLI call starts a new interpreter, so a module a command never runs
still costs its import on every call.  Each check runs in its own
subprocess and compares sys.modules before and after.
"""

import ast
import gc
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


# ``route`` splits a composite modulus and chooses the closed forms itself,
# so no count loads ``crt``, whatever its method.
METHOD_DP_COUNT = DP_COUNT + ("--method", "dp")
COMPOSITE_COUNT = ("count", "--modulus", "12", "--size", "6", "--target", "s")


@pytest.mark.parametrize("argv, method", [
    (DP_COUNT, "dp"), (BRUTE_COUNT, "brute"), (FORMULA_COUNT, "formula"),
    (METHOD_DP_COUNT, "dp"), (COMPOSITE_COUNT, "dp")])
def test_a_count_loads_only_the_source_its_route_takes(argv, method):
    report = probe(*argv)
    assert json.loads(report["out"])["method"] == method
    loaded = set(report["loaded"])
    assert {"quiddity.spec", "quiddity.route"} <= loaded
    assert "quiddity.crt" not in loaded
    assert loaded & set(SOURCE.values()) == {SOURCE[method]}
    assert not {"fractions", "decimal", "numbers"} & loaded


# The package modules each kind of benchmark count loads, exactly, as
# VERIFY_LOADS below pins them for verify: the request lines are spelled as
# the benchmark spells them, and each answers by the method given.
COUNTING_BASE = {"cli", "modring", "sl2", "spec", "route"}
COUNT_LOADS = {
    "auto-dp-2-power": (("16", "9", "t", "none", "auto"), "dp", {"counter"}),
    "auto-dp-composite": (("12", "8", "neg-s", "a3-nonunit", "auto"), "dp", {"counter"}),
    "auto-formula": (("32", "10", "s", "a2-unit", "auto"), "formula", {"formulas"}),
    "method-dp": (("24", "8", "2,1,1,1", "a4=0", "dp"), "dp", {"counter"}),
    "method-brute": (("14", "6", "3,1,2,1", "a1=1", "brute"), "brute", {"oracle"}),
}


@pytest.mark.parametrize("kind", COUNT_LOADS)
def test_each_benchmark_count_kind_loads_exactly_its_modules(kind):
    (n, size, target, constraint, method), source, modules = COUNT_LOADS[kind]
    report = probe("count", "--modulus", n, "--size", size, "--target", target,
                   "--constraint", constraint, "--method", method)
    assert report["code"] == 0, report["err"]
    assert json.loads(report["out"])["method"] == source
    loaded = {name for name in report["loaded"] if name.startswith("quiddity.")}
    assert loaded == {f"quiddity.{name}" for name in COUNTING_BASE | modules}


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


# The package modules each of the benchmark's costliest verify requests
# loads, exactly: without bytecode caching each one more is compiled again,
# at 2-7 ms a module.
VERIFY_LOADS = {
    "bijections": {"cli", "modring", "sl2", "reference", "spec", "oracle", "maps"},
    "totality": {"cli", "modring", "sl2", "reference", "spec", "oracle", "counter"},
    "crt": {"cli", "modring", "sl2", "reference", "spec", "oracle", "counter", "route",
            "crt", "formulas", "maps"},
}


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "bijections", "--modulus", "4", "--max-size", "4"),
    ("verify", "--suite", "totality", "--modulus", "3", "--sizes", "2"),
    ("verify", "--suite", "crt", "--sizes", "4"),
], ids=["bijections", "totality", "crt"])
def test_each_verify_suite_loads_exactly_its_modules(argv):
    report = probe(*argv)
    assert report["code"] == 0
    loaded = {name for name in report["loaded"] if name.startswith("quiddity.")}
    assert loaded == {f"quiddity.{name}" for name in VERIFY_LOADS[argv[2]]}


def test_a_modulus_past_trial_division_loads_the_factoring_module():
    # 1000003 is a prime above modring's trial limit 2^18, so factorize
    # proves it prime by Miller-Rabin in ``primes``; every benchmark count
    # (COUNT_LOADS, VERIFY_LOADS) factors below the limit and never loads it.
    report = probe("count", "--modulus", "1000003", "--size", "5", "--target", "id")
    assert report["code"] == 0, report["err"]
    out = json.loads(report["out"])
    assert (out["method"], out["count"]) == ("formula", "1000006000010")
    assert "quiddity.primes" in report["loaded"]


COUNTING = {"quiddity.counter", "quiddity.crt", "quiddity.oracle", "quiddity.route"}


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


# PROBE loads json itself before its snapshot, so this probe runs one
# request with nothing loaded but ast, and reports with repr.
BARE_PROBE = """
import ast, contextlib, io, sys
before = set(sys.modules)
from quiddity import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(ast.literal_eval(sys.argv[1]))
print(repr((code, sorted(set(sys.modules) - before))))
"""
# argparse loads gettext, and its first message lookup locale; no package
# module imports __future__, which would load it on every request
STDLIB_CLI = {"argparse", "gettext", "locale", "json", "__future__"}


@pytest.mark.parametrize("argv", [
    DP_COUNT, BRUTE_COUNT, FORMULA_COUNT,
    ("formula", "--name", "w8-even", "--n-half", "2"),
    ("crt", "--modulus", "12", "--size", "5"),
    ("table", "--which", "delta-s", "--rows", "3"),
    ("verify", "--suite", "totality", "--modulus", "3", "--sizes", "2"),
], ids=["count-dp", "count-brute", "count-formula", "formula", "crt", "table", "verify"])
def test_no_request_loads_argparse_or_json(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", BARE_PROBE, repr(list(argv))],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    code, loaded = ast.literal_eval(out.stdout)
    assert code == 0
    assert not STDLIB_CLI & set(loaded)


# A site-packages .pth hook may import re and typing at interpreter start,
# before the probes above take their snapshot.  ``python -S`` runs no site
# hook, so this probe sees whatever the request itself loads; it checks
# first that nothing it imported loaded either module.
PLAIN_PROBE = """
import contextlib, io, sys
unloaded = not {"re", "typing"} & set(sys.modules)
from quiddity import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(unloaded, code, *sorted({"re", "typing"} & set(sys.modules)))
"""


@pytest.mark.parametrize("argv", [
    DP_COUNT, BRUTE_COUNT, FORMULA_COUNT,
    ("count", "--modulus", "8", "--size", "6", "--target", "s", "--constraint", "a03-unit"),
    ("crt", "--modulus", "12", "--size", "5"),
    ("formula", "--name", "w8-even", "--n-half", "2"),
    ("table", "--which", "odd-w-plus", "--rows", "5"),
    ("table", "--which", "w8", "--rows", "4"),
    ("table", "--which", "delta-id", "--rows", "5"),
    ("table", "--which", "delta-s", "--rows", "3"),
    ("verify", "--suite", "bijections", "--modulus", "4", "--max-size", "4"),
    ("verify", "--suite", "recursion", "--m", "2", "--sizes", "5"),
    ("verify", "--suite", "bounds", "--m", "2", "--sizes", "6"),
    ("verify", "--suite", "crt", "--sizes", "4"),
    ("verify", "--suite", "totality", "--modulus", "3", "--sizes", "2"),
], ids=["count-dp", "count-brute", "count-formula", "count-constraint", "crt", "formula",
        "table-odd-w-plus", "table-w8", "table-delta-id", "table-delta-s", "verify-bijections",
        "verify-recursion", "verify-bounds", "verify-crt", "verify-totality"])
def test_no_request_loads_re_or_typing_without_site(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-S", "-c", PLAIN_PROBE, *argv],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", "0"]


# The process entry freezes the start-up heap, so no collection in the
# request or at exit walks it.  The child starts the entry as ``python -m
# quiddity`` does (runpy) or as the console script does (``sys.exit`` of
# the target's ``main()``) and reports the freeze count and the output.
ENTRY_PROBE = """
import contextlib, gc, io, runpy, sys
start, argv = sys.argv[1], sys.argv[2:]
sys.argv = ["quiddity", *argv]
frozen_before, out, code = gc.get_freeze_count(), io.StringIO(), None
with contextlib.redirect_stdout(out):
    try:
        if start == "module":
            runpy.run_module("quiddity", run_name="__main__")
        else:
            from quiddity.__main__ import main
            sys.exit(main())
    except SystemExit as stop:
        code = stop.code
print(repr((frozen_before, gc.get_freeze_count(), code, out.getvalue())))
"""
ENTRY_REQUESTS = [
    DP_COUNT,
    ("table", "--which", "delta-s", "--rows", "3"),
    ("count", "--modulus", "8", "--size", "5", "--target", "foo"),
]


def without_elapsed(out: str) -> str:
    return "\n".join(line.partition(', "elapsed_ms"')[0] for line in out.split("\n"))


@pytest.mark.parametrize("start", ["module", "script"])
@pytest.mark.parametrize("argv", ENTRY_REQUESTS, ids=["count", "table", "bad-target"])
def test_the_entry_freezes_and_answers_as_main_does(capsys, start, argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", ENTRY_PROBE, start, *argv],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    frozen_before, frozen_after, code, stdout = ast.literal_eval(out.stdout)
    assert frozen_before == 0 < frozen_after
    from quiddity import cli

    assert code == cli.main(list(argv))
    assert without_elapsed(stdout) == without_elapsed(capsys.readouterr().out)


def test_main_in_process_leaves_the_collector_alone(capsys):
    from quiddity import cli

    frozen = gc.get_freeze_count()
    for argv in ENTRY_REQUESTS:
        cli.main(list(argv))
    assert gc.get_freeze_count() == frozen


# Exit stays the interpreter's own: an atexit callback registered before
# the entry runs after it, which an ``os._exit`` shortcut would skip.
ATEXIT_PROBE = """
import atexit, runpy, sys
atexit.register(lambda: print("atexit ran"))
sys.argv = ["quiddity", *sys.argv[1:]]
runpy.run_module("quiddity", run_name="__main__")
"""


def test_an_atexit_callback_runs_after_the_entry():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", ATEXIT_PROBE, *ENTRY_REQUESTS[2]],
                         capture_output=True, text=True, env=env, timeout=60)
    assert (out.returncode, out.stdout) == (2, "atexit ran\n")
    out = subprocess.run([sys.executable, "-c", ATEXIT_PROBE, *DP_COUNT],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0
    assert out.stdout.endswith("}\natexit ran\n")


def test_the_console_script_is_the_entry():
    # read as text: tomllib is not in every supported Python
    pyproject = Path(SRC).parent / "pyproject.toml"
    scripts = pyproject.read_text().partition("[project.scripts]\n")[2].partition("\n\n")[0]
    assert scripts.splitlines() == ['quiddity = "quiddity.__main__:main"']
