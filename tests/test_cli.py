import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import quiddity
from quiddity import cli, formulas, modring, oracle, reference
from quiddity.cli import main
from quiddity.reference import table_text

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_count_formula_route(capsys):
    report = run_json(capsys, "count", "--modulus", "8", "--size", "7", "--target", "id")
    assert report["count"] == "5376"
    assert report["method"] == "formula"
    assert isinstance(report["count"], str)


def test_count_unit_constraint(capsys):
    report = run_json(capsys, "count", "--modulus", "8", "--size", "6",
                      "--target", "id", "--constraint", "a2-unit")
    assert report["count"] == "320"
    assert report["method"] == "formula"


def test_count_fixed_constraint_uses_dp(capsys):
    report = run_json(capsys, "count", "--modulus", "8", "--size", "5",
                      "--target", "id", "--constraint", "a2=3")
    assert report["count"] == "8"
    assert report["method"] == "dp"


def test_count_auto_route_takes_the_dp_past_two_million_group_elements(capsys):
    # |SL2(Z/160Z)| = 2,949,120; the walk answers in seconds, brute force
    # would need 160**8 candidates.
    report = run_json(capsys, "count", "--modulus", "160", "--size", "8", "--target", "s")
    assert report["method"] == "dp"
    assert report["count"] == "143350824960"


def test_count_explicit_methods_agree(capsys):
    values = {}
    for method in ("formula", "dp", "brute"):
        report = run_json(capsys, "count", "--modulus", "8", "--size", "5",
                          "--target", "id", "--method", method)
        values[method] = report["count"]
        assert report["method"] == method
    assert values == {"formula": "80", "dp": "80", "brute": "80"}


def test_count_arbitrary_target(capsys):
    report = run_json(capsys, "count", "--modulus", "8", "--size", "4",
                      "--target", "0,7,1,0")
    assert report["target"] == "0,7,1,0"
    assert report["method"] == "dp"


def test_count_is_deterministic_apart_from_timing(capsys):
    first = run_json(capsys, "count", "--modulus", "8", "--size", "6", "--target", "s")
    second = run_json(capsys, "count", "--modulus", "8", "--size", "6", "--target", "s")
    first.pop("elapsed_ms")
    second.pop("elapsed_ms")
    assert first == second


def test_count_rejects_bad_target(capsys):
    code, _, err = run_cli(capsys, "count", "--modulus", "8", "--size", "4",
                           "--target", "1,0,0,2")
    assert code == 2
    assert "determinant" in err


def test_count_rejects_bad_constraint(capsys):
    code, _, err = run_cli(capsys, "count", "--modulus", "8", "--size", "4",
                           "--constraint", "b2-unit")
    assert code == 2


def test_count_formula_unavailable_is_a_config_error(capsys):
    code, _, err = run_cli(capsys, "count", "--modulus", "8", "--size", "6",
                           "--target", "id", "--method", "formula")
    assert code == 2
    assert "formula" in err
    assert "size 6 over Z/8Z" in err


@pytest.mark.parametrize("constraint", ["none", "a2-nonunit"])
def test_a_composite_formula_refusal_names_the_piece_and_the_modulus(capsys, constraint):
    # Z/6Z splits into Z/2Z and Z/3Z; no formula counts size 5 over Z/2Z,
    # and the refusal says which modulus that piece belongs to, once.
    code, out, err = run_cli(capsys, "count", "--modulus", "6", "--size", "5", "--target", "id",
                             "--constraint", constraint, "--method", "formula")
    assert (code, out) == (2, "")
    assert err == "error: no formula for size 5 over Z/2Z, a piece of Z/6Z\n"


@pytest.mark.parametrize("spelled,name", [("1,0,0,1", "id"), ("7,0,0,7", "neg-id")])
def test_count_routes_on_the_target_matrix_not_its_spelling(capsys, spelled, name):
    by_name = run_json(capsys, "count", "--modulus", "8", "--size", "7", "--target", name)
    spelled_out = run_json(capsys, "count", "--modulus", "8", "--size", "7",
                           "--target", spelled)
    assert spelled_out["target"] == spelled
    assert (spelled_out["method"], spelled_out["count"]) == ("formula", by_name["count"])
    assert by_name["method"] == "formula"


def test_count_budget_exhaustion(capsys, monkeypatch):
    monkeypatch.setenv("QUIDDITY_BUDGET", "10")
    code, _, err = run_cli(capsys, "count", "--modulus", "8", "--size", "6",
                           "--target", "id", "--method", "brute")
    assert code == 2
    assert "budget" in err


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_count_rejects_a_bad_budget_variable(capsys, monkeypatch, value):
    # Every command that can walk reads its budget at entry, whatever route
    # the request then takes: a formula route, a crt assembly, a closed-form
    # table.  Only formula, which never walks, does not read it.
    monkeypatch.setenv("QUIDDITY_BUDGET", value)
    for argv in [("count", "--modulus", "12", "--size", "5", "--method", "brute"),
                 ("count", "--modulus", "8", "--size", "5"),
                 ("crt", "--modulus", "12", "--size", "5"),
                 ("table", "--which", "delta-id"),
                 ("verify", "--suite", "recursion")]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: QUIDDITY_BUDGET must be a positive integer, got {value!r}\n"
    code, _, err = run_cli(capsys, "formula", "--name", "w4-2m", "--m", "3", "--sign", "+")
    assert code == 0, err


@pytest.mark.parametrize("argv", [
    ("count", "--modulus", "8", "--size", "5", "--method", "dp"),
    ("count", "--modulus", "8", "--size", "5", "--method", "brute"),
    ("verify", "--suite", "bijections", "--modulus", "4", "--max-size", "3"),
], ids=["count-dp", "count-brute", "verify"])
@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_count_and_verify_reject_a_bad_budget_option(capsys, argv, value):
    code, out, err = run_cli(capsys, *argv, "--budget", value)
    assert (code, out) == (2, "")
    assert err == f"error: --budget must be a positive integer, got {value!r}\n"


def test_auto_route_takes_brute_force_when_only_its_cost_fits(capsys, monkeypatch):
    # N = 16, size 3: the walk predicts |G| * 4 = 3,072 * 4 = 12,288
    # additions, the oracle 32 candidates (the join at split 1 walks letter
    # 1 and letter 3, the free letter 2 between them unwalked; the naive
    # walk would be charged 64).
    argv = ("count", "--modulus", "16", "--size", "3", "--target", "neg-s")
    by_dp = run_json(capsys, *argv)
    assert (by_dp["method"], by_dp["count"]) == ("dp", "16")
    monkeypatch.setenv("QUIDDITY_BUDGET", "5000")
    by_brute = run_json(capsys, *argv)
    assert (by_brute["method"], by_brute["count"]) == ("brute", "16")
    code, out, err = run_cli(capsys, *argv, "--budget", "31")
    assert (code, out) == (2, "")
    assert err == "error: enumeration needs 32 candidates, budget is 31\n"


@pytest.mark.parametrize("argv, count", [
    # Z/2Z, Z/9Z and Z/125Z by the DP.  Over Z/2250Z itself the DP would
    # be charged 72,900,000,000 additions, the oracle 25,651,687,500,000
    # candidates.
    ("--modulus 2250 --size 9 --target s", "222489443732519531250"),
    # Z/3Z, Z/5Z, Z/7Z and Z/11Z; Z/1155Z would be charged 8,941,363,200
    # additions or 1,542,132,900 candidates.
    ("--modulus 1155 --size 6 --target t", "1466468640"),
])
def test_count_factors_a_composite_modulus(capsys, argv, count):
    report = run_json(capsys, "count", *argv.split())
    assert (report["method"], report["count"]) == ("dp", count)


def test_count_brute_and_dp_stay_on_the_whole_ring(capsys, monkeypatch):
    # Only auto and formula factor: with every piece within the DP's
    # budget, brute force still walks Z/12Z, and --method dp refuses on
    # the whole ring's cost.
    argv = ("count", "--modulus", "12", "--size", "5", "--target", "s")
    by_brute = run_json(capsys, *argv, "--method", "brute")
    assert (by_brute["method"], by_brute["count"]) == ("brute", run_json(capsys, *argv)["count"])
    code, _, err = run_cli(capsys, *argv, "--method", "dp", "--budget", "6000")
    assert code == 2 and err.startswith("error: the DP needs"), err
    assert run_json(capsys, *argv, "--budget", "6000")["method"] == "dp"


def test_explicit_dp_past_the_budget_exits_before_building():
    # |SL2(Z/3000Z)| * 4 is about 6.9e10; building the walk's graph alone
    # would take hours, so a missing check shows as a timeout.
    src = str(Path(quiddity.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "QUIDDITY_BUDGET"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-m", "quiddity", "count", "--modulus", "3000", "--size", "3",
         "--method", "dp"], capture_output=True, text=True, env=env, timeout=30)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == "error: the DP needs 69120000000 additions, budget is 134217728\n"


@pytest.mark.parametrize("n,required", [(128, 4729771520), (256, 75418446848)])
def test_an_oversized_bijection_battery_exits_before_building(n, required):
    # Without the battery's charge, N = 128 built maps for most of a minute
    # and past a gigabyte before one of its walks was refused.  The child
    # prints its own peak RSS in KiB after the request: VmHWM, which starts
    # afresh at exec, unlike ru_maxrss, which keeps the forking parent's.
    src = str(Path(quiddity.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "QUIDDITY_BUDGET"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    request = ("import sys; from quiddity import cli; "
               f"code = cli.main(['verify', '--suite', 'bijections', '--modulus', '{n}']); "
               "print(*[line.split()[1] for line in open('/proc/self/status') "
               "if line.startswith('VmHWM:')]); sys.exit(code)")
    started = time.monotonic()
    out = subprocess.run([sys.executable, "-c", request], capture_output=True, text=True,
                         env=env, timeout=30)
    assert time.monotonic() - started < 2
    assert out.returncode == 2
    assert out.stderr == f"error: enumeration needs {required} candidates, budget is 134217728\n"
    assert int(out.stdout) < 50 << 10


def test_a_battery_past_the_budget_exits_before_building():
    # Charged the psi pass and the unit-triple merges alone, N = 4 was
    # admitted at every depth: at --max-size 12 it ran for over a minute
    # and past 250 MB, and its two size-14 walks list about 5.6M tuples
    # each.  Its walks are charged too, so the request is refused at once.
    out = run_battery_in_a_child("4", "14")
    assert out.returncode == 2
    assert out.stderr == "error: enumeration needs 656177472 candidates, budget is 134217728\n"
    assert float(out.stdout) < 1


def test_a_battery_charge_too_long_to_print_is_named_by_its_digits():
    # The charge of N = 4 at --max-size 100000 has over 60,000 digits, past
    # the interpreter's int-to-str limit: formatting it raised that limit's
    # error in place of the budget message.
    out = run_battery_in_a_child("4", "100000")
    assert out.returncode == 2
    assert out.stderr == ("error: enumeration needs a count of candidates at least 60211 "
                          "digits long, budget is 134217728\n")
    assert float(out.stdout) < 1


def test_a_hopeless_brute_count_over_a_long_tuple_fails_fast():
    # Pricing each split by its own slices of letter counts was quadratic
    # in the size: Z/2Z at size 8000 took about 18 s to refuse.  Running products
    # price all 19,999 splits here, and the refusal names the cheapest.
    out = run_in_a_child("count", "--modulus", "2", "--size", "20000", "--method", "brute")
    assert out.returncode == 2
    spec = oracle.SetSpec(20000, quiddity.identity(modring.Modulus(2)))
    assert out.stderr == (f"error: enumeration needs {oracle._choose_join(spec).walked} "
                          "candidates, budget is 134217728\n")
    assert float(out.stdout) < 1


def test_a_dp_charge_too_long_to_print_is_named_by_its_digits():
    # walk_cost = 24 * (1 + size) has 4,301 digits: formatting it raised
    # the interpreter's int-to-str limit error in place of the budget message.
    out = run_in_a_child("count", "--modulus", "3", "--size", "9" * 4299, "--method", "dp")
    assert (out.returncode, out.stderr) == (2, "error: the DP needs a count of additions at "
                                               "least 4301 digits long, budget is 134217728\n")
    assert float(out.stdout) < 1


def test_a_long_brute_tuple_is_refused_without_a_product_per_letter():
    # Multiplying the 300,000 letter counts one at a time took about 4 s.
    out = run_in_a_child("count", "--modulus", "3", "--size", "300000", "--method", "brute")
    assert (out.returncode, out.stderr) == (2, "error: enumeration needs a count of candidates "
                                               "at least 71568 digits long, budget is 134217728\n")
    assert float(out.stdout) < 1


def test_a_hopeless_brute_count_is_refused_from_bit_lengths():
    # The refusal's bound, 2 isqrt(3^2999997), took about 6 s to form and
    # the products of the 3,000,000 letter counts about 1 s more; its bit
    # length is now read from logarithms and names the same digits.
    out = run_in_a_child("count", "--modulus", "3", "--size", "3000000", "--method", "brute")
    assert (out.returncode, out.stderr) == (2, "error: enumeration needs a count of candidates "
                                               "at least 715682 digits long, budget is 134217728\n")
    assert float(out.stdout) < 2


def test_a_nonunit_letter_over_a_huge_modulus_is_listed_without_a_scan():
    # The prime's one non-unit is 0, charged 2 candidates; testing the gcd
    # of every residue ran past 20 s.
    out = run_in_a_child("count", "--modulus", "1000000000039", "--size", "1",
                         "--constraint", "a1-nonunit")
    assert (out.returncode, out.stderr) == (0, "")
    line, seconds = out.stdout.splitlines()
    report = json.loads(line)
    del report["elapsed_ms"]
    assert report == {"modulus": 1000000000039, "size": 1, "target": "id",
                      "constraint": "a1-nonunit", "method": "brute", "count": "0"}
    assert float(seconds) < 1


def run_battery_in_a_child(modulus: str, max_size: str) -> subprocess.CompletedProcess:
    """verify --suite bijections in a child at the default budget, so that a
    battery that is built times out here."""
    return run_in_a_child("verify", "--suite", "bijections", "--modulus", modulus,
                          "--max-size", max_size)


def run_in_a_child(*argv: str) -> subprocess.CompletedProcess:
    """The CLI request ``argv`` in a child at the default budget; it prints
    the seconds the request took."""
    src = str(Path(quiddity.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "QUIDDITY_BUDGET"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    request = ("import sys, time; from quiddity import cli; started = time.perf_counter(); "
               f"code = cli.main({list(argv)!r}); print(time.perf_counter() - started); "
               "sys.exit(code)")
    return subprocess.run([sys.executable, "-c", request], capture_output=True, text=True,
                          env=env, timeout=30)


def test_formula_subcommand(capsys):
    report = run_json(capsys, "formula", "--name", "w-odd-2m",
                      "--n-half", "3", "--m", "3", "--sign", "+")
    assert report["value"] == "5376"
    report = run_json(capsys, "formula", "--name", "gauss-bracket", "--m", "3", "--k", "2")
    assert report["value"] == "7"
    report = run_json(capsys, "formula", "--name", "w-even-bounds",
                      "--n-half", "3", "--m", "3", "--sign", "+")
    assert report["lower"] == "512" and report["upper"] == "1280"


def test_formula_missing_parameter(capsys):
    code, _, err = run_cli(capsys, "formula", "--name", "w-odd-2m", "--m", "3")
    assert code == 2
    assert "n-half" in err


FORMULA_LINES = [
    ("gauss-bracket --m 5 --k 2",
     '{"formula": "gauss-bracket", "params": {"m": 5, "k": 2}, "value": "31"}'),
    ("gauss-binom2 --m 5 --k 3",
     '{"formula": "gauss-binom2", "params": {"m": 5, "k": 3}, "value": "1210"}'),
    ("u-count --n 7 --q 5 --sign +",
     '{"formula": "u-count", "params": {"n": 7, "q": 5, "sign": "+"}, "value": "651"}'),
    ("w4-ring4 --n 8 --sign +",
     '{"formula": "w4-ring4", "params": {"n": 8, "sign": "+"}, "value": "1408"}'),
    ("w-odd-2m --n-half 3 --m 4 --sign -",
     '{"formula": "w-odd-2m", "params": {"n_half": 3, "m": 4, "sign": "-"}, "value": "86016"}'),
    ("delta-closed --n 9 --m 3 --target s",
     '{"formula": "delta-closed", "params": {"n": 9, "m": 3, "target": "s"}, "value": "172032"}'),
    ("delta-base --n 4 --m 3 --target id",
     '{"formula": "delta-base", "params": {"n": 4, "m": 3, "target": "id"}, "value": "4"}'),
    ("delta-recursion --prev 320 --prev2 80 --m 3",
     '{"formula": "delta-recursion", "params": {"prev": 320, "prev2": 80, "m": 3}, '
     '"value": "3840"}'),
    ("w4-2m --m 5 --sign +",
     '{"formula": "w4-2m", "params": {"m": 5, "sign": "+"}, "value": "112"}'),
    ("w-even-bounds --n-half 4 --m 3 --sign +",
     '{"formula": "w-even-bounds", "params": {"n_half": 4, "m": 3, "sign": "+"}, '
     '"lower": "32816", "upper": "77824"}'),
    ("w8-even --n-half 5",
     '{"formula": "w8-even", "params": {"n_half": 5}, "value": "5605376"}'),
    ("w8-odd --n-half 3 --sign -",
     '{"formula": "w8-odd", "params": {"n_half": 3, "sign": "-"}, "value": "5376"}'),
    ("zero-pairs --m 6",
     '{"formula": "zero-pairs", "params": {"m": 6}, "value": "192"}'),
]


@pytest.mark.parametrize("argv,line", FORMULA_LINES,
                         ids=[argv.split()[0] for argv, _ in FORMULA_LINES])
def test_formula_json_lines(capsys, argv, line):
    code, out, err = run_cli(capsys, "formula", "--name", *argv.split())
    assert (code, out, err) == (0, line + "\n", "")


@pytest.mark.parametrize("argv", [
    "count --modulus 8 --size 6 --target s",
    "count --modulus 12 --size 6 --target 2,1,1,1 --constraint a2-unit",
    "count --modulus 8 --size 6 --target s --constraint a\u0663-unit",  # an Arabic-Indic 3
    "formula --name w-odd-2m --n-half 3 --m 3 --sign +",
    "formula --name w-even-bounds --n-half 3 --m 3 --sign +",
    "crt --modulus 15 --size 5",
    "crt --modulus 24 --size 5 --sign -",
], ids=["count-named", "count-explicit", "count-non-ascii", "formula-value", "formula-bounds",
        "crt-odd", "crt-composite"])
def test_a_report_line_is_what_json_dumps_prints(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, err) == (0, "")
    line = out.removesuffix("\n")
    assert line == json.dumps(json.loads(line))


def test_the_report_encoder_escapes_strings_as_json_does():
    report = {"quote\"": 'a"b', "back\\slash": "c\\d", "control": "\x00\x1f\t\n\x7f",
              "non-ascii": ["\u00e9", "\u4e2d", "\U0001f600"], "none": None,
              "int": [0, -3, 10**30]}
    assert cli._encode(report) == json.dumps(report)


@pytest.mark.parametrize("argv,missing", [
    ("gauss-bracket --m 5", "k"),
    ("u-count --n 7 --sign +", "q"),
    ("w4-ring4 --n 8", "sign"),
    ("w-odd-2m --m 4 --sign -", "n-half"),
    ("delta-closed --n 9 --m 3", "target"),
    ("delta-recursion --prev 320 --m 3", "prev2"),
    ("w4-2m --sign +", "m"),
    ("w8-even", "n-half"),
    ("w8-odd --n-half 3", "sign"),
    ("zero-pairs", "m"),
])
def test_formula_missing_parameter_messages(capsys, argv, missing):
    code, out, err = run_cli(capsys, "formula", "--name", *argv.split())
    name = argv.split()[0]
    assert (code, out, err) == (2, "", f"error: formula {name!r} needs --{missing}\n")


# One request per formula with a parameter its formula does not read.
FORMULA_REFUSALS = [
    ("gauss-bracket --m 5 --k 2 --n 7", "--n"),
    ("gauss-binom2 --m 5 --k 3 --sign +", "--sign"),
    ("u-count --n 7 --q 5 --sign + --m 2", "--m"),
    ("w4-ring4 --n 8 --sign + --q 5", "--q"),
    ("w-odd-2m --n-half 3 --m 4 --sign - --target id", "--target"),
    ("delta-closed --n 9 --m 3 --target s --sign +", "--sign"),
    ("delta-base --n 4 --m 3 --target id --k 1", "--k"),
    ("delta-recursion --prev 320 --prev2 80 --m 3 --n 5", "--n"),
    ("w4-2m --m 5 --sign + --n-half 2", "--n-half"),
    ("w-even-bounds --n-half 4 --m 3 --sign + --prev 1", "--prev"),
    ("w8-even --n-half 3 --m 5 --sign -", "--m, --sign"),
    ("w8-odd --n-half 3 --sign - --prev2 4", "--prev2"),
    ("zero-pairs --m 6 --k 2 --q 3", "--k, --q"),
]


@pytest.mark.parametrize("argv,unread", FORMULA_REFUSALS,
                         ids=[argv.split()[0] for argv, _ in FORMULA_REFUSALS])
def test_formula_refuses_a_parameter_it_does_not_read(capsys, argv, unread):
    code, out, err = run_cli(capsys, "formula", "--name", *argv.split())
    name = argv.split()[0]
    assert (code, out, err) == (2, "", f"error: formula {name!r} takes no {unread}\n")


@pytest.mark.parametrize("which,filename", [
    ("odd-w-plus", "odd_w_plus.csv"),
    ("w8", "w8.csv"),
    ("delta-id", "delta_id.csv"),
    ("delta-s", "delta_s.csv"),
])
def test_tables_match_golden_files(which, filename, capsys):
    code, out, _ = run_cli(capsys, "table", "--which", which)
    assert code == 0
    assert out == (GOLDEN / filename).read_text()


def test_table_rows_selection(capsys):
    code, out, _ = run_cli(capsys, "table", "--which", "w8", "--rows", "4,6")
    assert code == 0
    assert out == "n,count\n4,28\n6,1440\n"
    code, out, _ = run_cli(capsys, "table", "--which", "delta-id", "--rows", "5..7")
    assert out == "n,count\n5,48\n6,320\n7,2816\n"


def test_table_rejects_even_rows_for_odd_table(capsys):
    code, _, err = run_cli(capsys, "table", "--which", "odd-w-plus", "--rows", "4")
    assert code == 2


@pytest.mark.parametrize("rows", ["9..3", ","])
def test_table_rejects_an_empty_row_selection(capsys, rows):
    code, out, err = run_cli(capsys, "table", "--which", "w8", "--rows", rows)
    assert (code, out) == (2, "")
    assert err == f"error: {rows!r} selects no values; want e.g. 3..10 or 3,5,7\n"


def test_table_text_matches_cli(capsys):
    code, out, _ = run_cli(capsys, "table", "--which", "odd-w-plus")
    assert out == table_text("odd-w-plus")


def test_the_parser_lists_every_suite_in_order():
    assert cli.SUITE_NAMES == tuple(reference.SUITES)


def test_the_suites_read_every_verify_option_but_suite_and_budget():
    # a new suite or option cannot go unread: each option is some suite's
    read = {key for _, options in reference.SUITES.values() for key in options}
    assert read == set(cli.COMMANDS["verify"][2]) - {"suite", "budget"}


VERIFY_VALUES = {"modulus": "20", "m": "5", "sizes": "5", "max-size": "6"}
UNREAD_PAIRS = [(suite, key) for suite, (_, options) in reference.SUITES.items()
                for key in VERIFY_VALUES if key not in options]


@pytest.mark.parametrize("suite,key", UNREAD_PAIRS, ids=[f"{s}-{k}" for s, k in UNREAD_PAIRS])
def test_verify_refuses_an_option_its_suite_does_not_read(capsys, monkeypatch, suite, key):
    def walk(*args):
        raise AssertionError(f"{suite} started")

    for name, (_, options) in reference.SUITES.items():
        monkeypatch.setitem(reference.SUITES, name, (walk, options))
    code, out, err = run_cli(capsys, "verify", "--suite", suite, f"--{key}", VERIFY_VALUES[key])
    assert (code, out, err) == (2, "", f"error: verify --suite {suite} takes no --{key}\n")


def test_verify_names_every_unread_option_in_one_line(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "bijections", "--modulus", "4",
                             "--m", "2", "--sizes", "5")
    assert (code, out, err) == (2, "", "error: verify --suite bijections takes no --m, --sizes\n")


@pytest.mark.parametrize("argv", [("crt", "--sizes", "-2"), ("crt", "--sizes", "5,0"),
                                  ("totality", "--sizes", "-5"), ("totality", "--sizes", "3,-1")])
def test_the_dp_pass_suites_refuse_a_size_below_one(capsys, argv):
    # one DP pass to the largest size is read at every size, so a size
    # below 1 is refused before it could index that pass
    code, out, err = run_cli(capsys, "verify", "--suite", *argv)
    assert (code, out, err) == (2, "", "error: tuple size must be >= 1\n")


def test_verify_all_hands_each_suite_the_options_it_reads(capsys, monkeypatch):
    calls = []
    for name, (runner, options) in reference.SUITES.items():
        def record(*args, name=name, runner=runner):
            calls.append((name, args))
            return runner(*args)

        monkeypatch.setitem(reference.SUITES, name, (record, options))
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--modulus", "4", "--m", "2",
                             "--sizes", "6", "--max-size", "4", "--budget", "1000000")
    assert (code, err) == (0, "")
    assert out.endswith("30/30 checks passed\n")
    assert calls == [("bijections", ([4], 4, 1000000)), ("recursion", ([2], [6], 1000000)),
                     ("bounds", ([2], [6], 1000000)), ("crt", ([6], 1000000)),
                     ("totality", ([4], [6], 1000000))]


def test_verify_recursion_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "recursion",
                           "--m", "2,3", "--sizes", "5..10")
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out


def test_the_recursion_refuses_m_below_one_and_keeps_m_one(capsys):
    code, out, err = run_cli(capsys, "formula", "--name", "delta-recursion",
                             "--prev", "1", "--prev2", "2", "--m", "0")
    assert (code, out, err) == (2, "", "error: need m >= 1\n")
    code, out, err = run_cli(capsys, "verify", "--suite", "recursion", "--m", "1")
    assert (code, err) == (0, "")
    assert out.endswith("25/25 checks passed\n")


@pytest.mark.parametrize("suite", ["bounds", "recursion"])
@pytest.mark.parametrize("m", ["-1", "0", "3,0"])
def test_verify_refuses_an_exponent_below_one(capsys, suite, m):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--m", m)
    assert (code, out) == (2, "")
    assert err == f"error: --m must be >= 1, got {min(map(int, m.split(',')))}\n"


# Run in the child: table and verify requests, then a count, reporting
# whether json was loaded before the count and the count's own line.
JSON_PROBE = """
import contextlib, io, sys
from quiddity import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["table", "--which", "w8", "--rows", "2..5"]),
             cli.main(["verify", "--suite", "totality", "--modulus", "3", "--sizes", "2"])]
loaded = "json" in sys.modules
with contextlib.redirect_stdout(io.StringIO()) as out:
    codes.append(cli.main(["count", "--modulus", "8", "--size", "6", "--target", "s"]))
print(codes, loaded)
print(out.getvalue(), end="")
"""


def test_only_a_command_that_prints_json_loads_it():
    src = str(Path(quiddity.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", JSON_PROBE], capture_output=True, text=True,
                         check=True, env=env, timeout=60)
    status, line = out.stdout.splitlines()
    assert status == "[0, 0, 0] False"
    report = json.loads(line)
    assert (report["count"], report["method"]) == ("640", "dp")


def test_verify_recursion_rejects_sizes_below_five(capsys):
    # a size below 5 is refused, not dropped: at +-S the DP gives 2^m at
    # size 4 where the recursion gives 0
    for sizes in ("2..4", "3..6"):
        code, out, err = run_cli(capsys, "verify", "--suite", "recursion", "--sizes", sizes)
        assert (code, out) == (2, "")
        assert err == "error: recursion checks need a size >= 5\n"


def test_verify_recursion_reports_a_wrong_closed_form(capsys, monkeypatch):
    right = formulas.delta_closed_form
    monkeypatch.setattr(formulas, "delta_closed_form",
                        lambda n, m, target: int(right(n, m, target)) + (n == 20))
    code, out, _ = run_cli(capsys, "verify", "--suite", "recursion", "--m", "2", "--sizes", "5")
    assert code == 1
    summary = [line for line in out.splitlines() if "formula identity" in line]
    assert len(summary) == 1
    assert summary[0].startswith("FAIL recursion formula identity m=2..6 n=7..40 (")
    assert out.endswith("6/7 checks passed\n")


@pytest.mark.parametrize("max_size", ["2", "0", "-3"])
def test_verify_bijections_rejects_a_max_size_below_three(capsys, max_size):
    code, out, err = run_cli(capsys, "verify", "--suite", "bijections", "--modulus", "4",
                             "--max-size", max_size)
    assert (code, out) == (2, "")
    assert err == f"error: --max-size must be >= 3 (the smallest shipped map), got {max_size}\n"


def test_verify_bijections_runs_the_smallest_depth(capsys):
    # Size-3 negation plus the two fiber shifts over Z/4Z.
    code, out, _ = run_cli(capsys, "verify", "--suite", "bijections", "--modulus", "4",
                           "--max-size", "3")
    assert code == 0
    assert out.endswith("\n3/3 checks passed\n")


def test_verify_bounds_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "bounds", "--m", "3",
                           "--sizes", "6,8")
    assert code == 0
    assert "FAIL" not in out


def test_verify_small_bijection_grid(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "bijections",
                           "--modulus", "8", "--max-size", "4")
    assert code == 0
    assert "FAIL" not in out


def test_verify_crt_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "crt", "--sizes", "4,5")
    assert code == 0
    assert "FAIL" not in out


def test_the_crt_suite_names_the_tuple_a_failing_map_breaks_on(capsys, monkeypatch):
    # The crt suite printed a failed map's failure alone; like the
    # bijections suite it now prints the tuple the map breaks on.
    from quiddity import crt

    split = crt.crt_split_bijection
    monkeypatch.setattr(crt, "crt_split_bijection",
                        lambda spec: split(spec)._replace(backward=lambda image: ()))
    code, out, _ = run_cli(capsys, "verify", "--suite", "crt", "--sizes", "4")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert [line.split(" (")[0] for line in fails] == [
        "FAIL crt-split(n=4, N=12, target=id)", "FAIL crt-split(n=4, N=12, target=neg-id)"]
    for line in fails:
        assert " (backward(forward(t)) != t; counterexample=((" in line, line


def test_crt_subcommand(capsys):
    report = run_json(capsys, "crt", "--modulus", "24", "--size", "5", "--sign", "+")
    assert report["count"] == "800"
    assert report["factorization"] == {"two_exponent": 3, "odd_primes": [3]}
    assert report["pieces"] == [
        {"modulus": 8, "count": "80", "source": "formula"},
        {"modulus": 3, "count": "10", "source": "formula"},
    ]


def test_crt_rejects_non_squarefree(capsys):
    # Z/36Z was once refused for its odd part 9 = 3^2; it now splits into
    # Z/4Z and Z/9Z, and the DP counts the prime-square piece.
    code, out, _ = run_cli(capsys, "crt", "--modulus", "36", "--size", "5")
    assert code == 0
    report = json.loads(out)
    assert report["factorization"] == {"two_exponent": 2, "odd_primes": [3]}
    assert report["pieces"] == [{"modulus": 4, "count": "20", "source": "formula"},
                                {"modulus": 9, "count": "90", "source": "dp"}]
    assert report["count"] == "1800"


def test_a_prime_square_piece_keeps_the_plus_id_count_on_the_dp(capsys):
    # u_count over F_9 is not the count over Z/9Z, so no formula answers.
    code, out, _ = run_cli(capsys, "count", "--modulus", "36", "--size", "7", "--target", "id")
    assert code == 0
    assert json.loads(out)["method"] == "dp"


HUGE_PRIME = 10 ** 18 + 3
HUGE_SEMIPRIME = (10 ** 9 + 7) * (10 ** 9 + 9)


# Each request once ran past 10 s in unbounded trial division.  The prime
# is proved by Miller-Rabin; the semiprime's factors both lie beyond trial
# division, so Pollard's rho splits it.
@pytest.mark.parametrize("argv, error", [
    (f"count --modulus {HUGE_PRIME} --size 5 --target id", None),
    (f"count --modulus {HUGE_PRIME} --size 2 --target s --method dp", "the DP needs"),
    (f"crt --modulus {HUGE_PRIME} --size 5", None),
    (f"formula --name u-count --n 5 --q {HUGE_PRIME} --sign -", None),
    (f"count --modulus {HUGE_SEMIPRIME} --size 5 --target id", None),
    (f"crt --modulus {HUGE_SEMIPRIME} --size 5", None),
    (f"count --modulus {HUGE_SEMIPRIME} --size 2 --target s --method dp", "the DP needs"),
])
def test_huge_moduli_answer_or_refuse_quickly(capsys, argv, error):
    started = time.perf_counter()
    code, out, err = run_cli(capsys, *argv.split())
    assert time.perf_counter() - started < 2
    if error is None:
        assert code == 0 and out, err
    else:
        assert code == 2 and err.startswith(f"error: {error}"), err


def test_a_huge_prime_modulus_answers_by_formula(capsys):
    code, out, _ = run_cli(capsys, "count", "--modulus", str(HUGE_PRIME), "--size", "5")
    assert code == 0
    report = json.loads(out)
    assert report["method"] == "formula"
    q = HUGE_PRIME
    assert report["count"] == str(1 + q * q)  # gauss_bracket(2, q^2)


def test_a_semiprime_beyond_trial_division_answers_by_formula(capsys):
    # 68722098197 = 262147 * 262151: trial division to 2^18 finds neither.
    report = run_json(capsys, "count", "--modulus", "68722098197", "--size", "5",
                      "--target", "id")
    assert report["method"] == "formula"
    assert report["count"] == "4722726780735554847220"  # (1 + 262147^2)(1 + 262151^2)


def test_a_crt_request_factors_its_modulus_once(capsys):
    # The split, the piece's closed form and u_count's prime check all read
    # the one cached factorization.
    modring.factorize.cache_clear()
    assert main(["crt", "--modulus", str(HUGE_PRIME), "--size", "5"]) == 0
    capsys.readouterr()
    assert modring.factorize.cache_info().misses == 1


def test_module_entry_point_runs():
    # The child finds the package where this process found it, installed or not.
    src = str(Path(quiddity.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run(
        [sys.executable, "-m", "quiddity", "table", "--which", "w8", "--rows", "2,3"],
        capture_output=True, text=True, check=True, env=env)
    assert out.stdout == "n,count\n2,1\n3,2\n"


def test_verify_bijections_output_is_golden(capsys):
    # 588 maps over Z/8Z up to size 6, one line each, plus the summary.
    code, out, err = run_cli(capsys, "verify", "--suite", "bijections", "--modulus", "8",
                             "--max-size", "6")
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / "verify_bijections_8_6.txt").read_bytes()


@pytest.mark.parametrize("n_mod,depth", [(4, 8), (16, 5)])
def test_the_other_benchmark_batteries_are_golden(capsys, n_mod, depth):
    # the two other batteries the benchmark runs: 139 maps over Z/4Z and
    # 2126 over Z/16Z, one line each, plus the summary
    code, out, err = run_cli(capsys, "verify", "--suite", "bijections", "--modulus",
                             str(n_mod), "--max-size", str(depth))
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / f"verify_bijections_{n_mod}_{depth}.txt").read_bytes()


def test_the_bijection_suite_frees_each_map_once_verified():
    # The Z/16Z battery holds about 1.9 MB of maps once built.  Verified
    # while the whole list stayed alive, the suite peaked near 2.8 MB
    # traced; freeing each map (and the domain only it holds) once it is
    # verified keeps the peak near 2.1 MB.
    modring.Modulus(16)
    tracemalloc.start()
    try:
        checks = reference._suite_bijections([16], 5, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(checks) == 2126 and all(check.ok for check in checks)
    assert peak < 2_400_000, peak


def test_totality_checks_every_bucket_against_the_dp(monkeypatch):
    # One tuple moved between two buckets keeps the histogram's total, but
    # two buckets then disagree with the DP, so the oracle checks fail.
    # The suite reads the oracle's buckets by key, as product_histogram does.
    real = oracle._product_buckets

    def moved(*args, **kwargs):
        hist = real(*args, **kwargs)
        first, second = list(hist)[:2]
        hist[first] += 1
        hist[second] -= 1
        return hist

    monkeypatch.setattr(oracle, "_product_buckets", moved)
    checks = reference._suite_totality([3], [3, 4], None)
    assert [(check.name, check.ok) for check in checks] == [
        ("totality dp N=3 n=3", True), ("totality dp N=3 n=4", True),
        ("totality oracle N=3 n=3", False), ("totality oracle N=3 n=4", False)]


@pytest.mark.parametrize("suite", ["totality", "recursion", "bounds", "crt"])
def test_the_closed_form_and_histogram_suites_are_golden(capsys, suite):
    # totality buckets every candidate through the oracle's histogram and
    # checks each bucket against the DP;
    # recursion and bounds evaluate the closed forms against the DP;
    # crt checks the DP over Z/12Z against the product of its pieces' counts
    # and verifies the CRT split bijection
    code, out, err = run_cli(capsys, "verify", "--suite", suite)
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / f"verify_{suite}.txt").read_bytes()


class CountingWriter:
    """A stdout that keeps each write's text."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def _per_line(checks) -> str:
    """A report as one line per check, then the tally."""
    lines = [f"{'PASS' if c.ok else 'FAIL'} {c.name}" + (f" ({c.detail})" if c.detail else "")
             for c in checks]
    return "".join(line + "\n" for line in lines) + f"{len(checks)}/{len(checks)} checks passed\n"


def test_verify_writes_its_report_in_one_write(monkeypatch):
    # With stdout unbuffered, each write is a system call: the report of
    # every suite leaves in one, byte for byte the report line by line.
    runs = [
        (["verify", "--suite", "bijections", "--modulus", "4", "--max-size", "4"],
         _per_line(reference._suite_bijections([4], 4, None))),
        (["verify", "--suite", "totality", "--modulus", "3", "--sizes", "2"],
         "PASS totality dp N=3 n=2 (9 vs 3^2)\n"
         "PASS totality oracle N=3 n=2 (bucketed walk)\n"
         "2/2 checks passed\n"),
    ]
    for argv, expected in runs:
        writer = CountingWriter()
        monkeypatch.setattr(sys, "stdout", writer)
        assert main(argv) == 0
        assert writer.writes == [expected]


def test_an_oversized_refusal_lists_no_values(capsys, monkeypatch):
    # 1000003**2 + 1000003 candidates for the join at split 1 (letter 1,
    # then letters 3 and 4, the free letter 2 unwalked); listing the
    # 4 * 1000003 values alone would take about 130 MB.
    monkeypatch.delenv("QUIDDITY_BUDGET", raising=False)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "count", "--modulus", "1000003", "--size", "4",
                                 "--target", "t")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == ("error: enumeration needs 1000007000012 candidates, "
                   "budget is 134217728\n")
    assert peak < 1 << 20


@pytest.mark.parametrize("method", ["auto", "brute"])
@pytest.mark.parametrize("size,required", [(1, 1000000008), (2, 1000000008),
                                           (3, 2000000014)])
def test_a_short_tuple_over_a_huge_modulus_lists_no_values(capsys, monkeypatch, method,
                                                           size, required):
    # At size 1 the naive walk walks no letter, but listing each
    # position's values over Z/1000000007Z would take gigabytes; it is
    # charged those values too (N + 1).  At sizes 2 and 3 the join at split
    # 1 is charged less, N + 1 and 2N.  Each is refused before any value
    # is listed.
    monkeypatch.delenv("QUIDDITY_BUDGET", raising=False)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "count", "--modulus", "1000000007", "--size",
                                 str(size), "--target", "s", "--method", method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == f"error: enumeration needs {required} candidates, budget is 134217728\n"
    assert peak < 1 << 20


@pytest.mark.parametrize("argv,refusal", [
    # |SL2(Z/4Z)| * 7
    (("--suite", "bounds", "--m", "2", "--sizes", "6", "--budget", "10"),
     "the DP needs 336 additions, budget is 10"),
    (("--suite", "recursion", "--budget", "10"), "the DP needs 576 additions, budget is 10"),
    # crt and totality walk the DP once, charged for their largest size 7:
    # |SL2(Z/12Z)| * 8 and |SL2(Z/3Z)| * 8
    (("--suite", "crt", "--budget", "10"), "the DP needs 9216 additions, budget is 10"),
    (("--suite", "totality", "--budget", "10"), "the DP needs 192 additions, budget is 10"),
    # the walk's 192 additions fit, the histogram's 801 candidates do not:
    # 3**6 prefix leaves and 3 updates onto each of |SL2(Z/3Z)| = 24 products
    (("--suite", "totality", "--modulus", "3", "--sizes", "7", "--budget", "800"),
     "enumeration needs 801 candidates, budget is 800"),
    # one walk per m, charged for its largest size: |SL2(Z/4Z)| * 11
    (("--suite", "bounds", "--m", "2", "--sizes", "6,10", "--budget", "10"),
     "the DP needs 528 additions, budget is 10"),
], ids=["bounds", "recursion", "crt", "totality-dp", "totality-histogram", "bounds-largest"])
def test_verify_budget_reaches_the_dp_suites(capsys, argv, refusal):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {refusal}\n"


def _record_dp_walks(monkeypatch) -> list[tuple[int, int]]:
    """Patch the DP pass to note each call's (modulus, size) as it runs."""
    from quiddity import counter

    walks, walk = [], counter.dp_vector_sequence

    def record(size, modulus, *args, **kwargs):
        walks.append((modulus.n, size))
        return walk(size, modulus, *args, **kwargs)

    monkeypatch.setattr(counter, "dp_vector_sequence", record)
    return walks


@pytest.mark.parametrize("suite,walks", [
    ("recursion", [(4, 8), (8, 8)]), ("bounds", [(4, 10), (8, 8)]),
    # the two Z/3Z walks are the CRT assembly's size-4 piece counts, which
    # the router sends to the DP, not reads of the suite's own pass
    ("crt", [(12, 7), (3, 4), (3, 4)]), ("totality", [(3, 7), (4, 7), (8, 7)])])
def test_each_dp_suite_walks_each_ring_once(capsys, monkeypatch, suite, walks):
    recorded = _record_dp_walks(monkeypatch)
    code, out, err = run_cli(capsys, "verify", "--suite", suite)
    assert (code, err) == (0, "")
    assert recorded == walks


def test_bounds_refuses_a_size_before_any_walk(capsys, monkeypatch):
    recorded = _record_dp_walks(monkeypatch)
    code, out, err = run_cli(capsys, "verify", "--suite", "bounds", "--m", "2,3",
                             "--sizes", "6,7")
    assert (code, out, err) == (2, "", "error: bounds apply to even sizes >= 6\n")
    assert recorded == []


@pytest.mark.parametrize("argv,refusal", [
    (("--suite", "totality", "--modulus", "3,1"), "modulus must be >= 2, got 1"),
    (("--suite", "bijections", "--modulus", "4,0"), "modulus must be >= 2, got 0"),
    (("--suite", "all", "--modulus", "3,1"), "modulus must be >= 2, got 1"),
    (("--suite", "bounds", "--m", "2,1"), "bounds need --m >= 2, got 1"),
    (("--suite", "all", "--m", "2,1"), "bounds need --m >= 2, got 1"),
], ids=["totality", "bijections", "all-modulus", "bounds", "all-m"])
def test_verify_refuses_a_ring_too_small_before_any_suite_walks(capsys, monkeypatch, argv,
                                                                refusal):
    from quiddity import maps

    walks = _record_dp_walks(monkeypatch)
    for module, name in ((oracle, "_product_buckets"), (maps, "shipped_maps")):
        monkeypatch.setattr(module, name, lambda *args, name=name, **kwargs: walks.append(name))
    code, out, err = run_cli(capsys, "verify", *argv)
    assert (code, out, err) == (2, "", f"error: {refusal}\n")
    assert walks == []


@pytest.mark.parametrize("sizes,refusal", [
    # the bijection battery was built, and recursion's DP run, before these
    ("3..6", "recursion checks need a size >= 5"), ("5..8", "bounds apply to even sizes >= 6"),
], ids=["recursion", "bounds"])
def test_verify_all_refuses_a_suite_s_sizes_before_any_suite_walks(capsys, monkeypatch, sizes,
                                                                    refusal):
    from quiddity import maps

    walks = _record_dp_walks(monkeypatch)
    for module, name in ((oracle, "_product_buckets"), (maps, "shipped_maps")):
        monkeypatch.setattr(module, name, lambda *args, name=name, **kwargs: walks.append(name))
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--sizes", sizes)
    assert (code, out, err) == (2, "", f"error: {refusal}\n")
    assert walks == []


def test_recursion_still_checks_the_exponent_one(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "recursion", "--m", "1")
    assert (code, err) == (0, "")
    assert out.endswith("25/25 checks passed\n")


@pytest.mark.parametrize("run,bound", [
    # every snapshot to the largest size took 47.6 MB and 20.3 MB
    (lambda: reference._suite_crt([3000], None), 8_000_000),
    (lambda: reference._suite_totality([16], [1500], None), 4_000_000),
], ids=["crt", "totality"])
def test_a_sparse_dp_suite_keeps_only_the_sizes_it_reads(run, bound):
    tracemalloc.start()
    try:
        checks = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checks and all(check.ok for check in checks)
    assert peak < bound
