"""The CLI's argument contract, as a user meets it through
``python -m quiddity``: the option spellings it takes, --help, and how a
bad request fails.

Error cases check the exit code and that stderr names the command or
option at fault, not the wording of the message.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quiddity
from quiddity import cli

SRC = str(Path(quiddity.__file__).resolve().parents[1])
COUNT = ("count", "--modulus", "8", "--size", "5", "--target", "s")


def run_module(*argv) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "quiddity", *argv], capture_output=True,
                          text=True, env=env, timeout=60)


@pytest.mark.parametrize("argv, named", [
    ((), "command"),
    (("frobnicate",), "frobnicate"),
    (("count", "--modulus", "8"), "--size"),
    ((*COUNT, "--bogus", "1"), "--bogus"),
    (("count", "--modulus", "8", "--size", "x"), "--size"),
    ((*COUNT, "--method", "fast"), "--method"),
    (("count", "--modulus", "8", "--size"), "--size"),
    (("count", "--modulus", "--size", "5"), "--modulus"),
    (("crt", "--modulus", "12", "--size", "5", "--sign", "0"), "--sign"),
    (("table", "--which", "w9"), "--which"),
], ids=["no-command", "unknown-command", "missing-required", "unknown-option",
        "not-an-integer", "not-a-choice", "no-value-at-end", "no-value-before-option",
        "crt-sign", "table-which"])
def test_a_bad_request_exits_two_naming_what_is_wrong(argv, named):
    out = run_module(*argv)
    assert (out.returncode, out.stdout) == (2, "")
    assert "error: " in out.stderr
    assert named in out.stderr


@pytest.mark.parametrize("argv, size", [
    (("count", "--modulus", "8", "--size=5", "--target", "s"), 5),
    (("count", "--mod", "8", "--si", "5", "--target", "s"), 5),
    (("count", "--modulus", "8", "--size", "4", "--target", "s", "--size", "5"), 5),
], ids=["equals-form", "prefix", "repeated-last-wins"])
def test_option_spellings(argv, size):
    out = run_module(*argv)
    assert (out.returncode, out.stderr) == (0, "")
    report = json.loads(out.stdout)
    assert (report["modulus"], report["size"], report["count"]) == (8, size, "160")


@pytest.mark.parametrize("target", ["foo", "1,0,0,1,", "1,0,0", "1,0,x,1"],
                         ids=["word", "trailing-comma", "three-entries", "non-integer-entry"])
def test_a_bad_target_exits_two_naming_it(target):
    out = run_module("count", "--modulus", "8", "--size", "5", "--target", target)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr.startswith("error: target must be one of ")
    assert repr(target) in out.stderr


def test_help_lists_the_commands():
    out = run_module("--help")
    assert (out.returncode, out.stderr) == (0, "")
    for command in ("count", "formula", "table", "verify", "crt"):
        assert command in out.stdout


def test_a_commands_help_lists_its_options():
    out = run_module("count", "--help")
    assert (out.returncode, out.stderr) == (0, "")
    for option in ("--modulus", "--size", "--target", "--constraint", "--method", "--budget"):
        assert option in out.stdout


def test_main_reads_sys_argv_as_the_console_script_calls_it(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["quiddity", *COUNT])
    assert cli.main() == 0
    assert json.loads(capsys.readouterr().out)["count"] == "160"


@pytest.mark.parametrize("argv, message", [
    ((), "no command given; choose one of count, formula, table, verify, crt"),
    (("count", "--modulus", "8"), "count needs --size"),
    (("count", "--m", "8", "--size", "5"),
     "'--m' is not one of count's options --modulus, --size, --target, --constraint, "
     "--method, --budget"),
    (("count", "--modulus", "8", "--size", "5", "8"),
     "'8' is not one of count's options --modulus, --size, --target, --constraint, "
     "--method, --budget"),
    (("formula", "--name", "w8-even", "--n-half", "two"),
     "formula --n-half wants an integer, got 'two'"),
    (("formula", "--name", "w8-odd", "--n-half", "3", "--sign", "x"),
     "formula --sign wants one of +, -, got 'x'"),
    (("verify", "--suite", "crt", "--sizes"), "verify --sizes needs a value"),
    (("table", "--which", "w8", "--rows", "5.."),
     "'5..' is neither an integer list nor a range; want e.g. 3..10 or 3,5,7"),
], ids=["no-command", "missing", "ambiguous-prefix", "stray-argument", "integer", "choice",
        "no-value", "open-range"])
def test_a_parse_error_is_one_error_line(capsys, argv, message):
    assert cli.main(list(argv)) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_each_handler_resolves_in_the_module_it_names(command):
    # main imports the handler's module and looks the handler up at call
    # time; this resolves it the same way without running it.
    module, _, handler = cli.COMMANDS[command][0].partition(".")
    assert callable(getattr(importlib.import_module(f"quiddity.{module}"), handler))


def test_help_needs_no_valid_request(capsys):
    # --help wins over what is missing or wrong in the rest of the line
    assert cli.main(["verify", "--suite", "nope", "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: quiddity verify")
    assert "2-power exponents, e.g. 2,3" in out
