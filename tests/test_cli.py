import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quiddity
from quiddity.cli import main, table_text

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


def test_count_budget_exhaustion(capsys, monkeypatch):
    monkeypatch.setenv("QUIDDITY_BUDGET", "10")
    code, _, err = run_cli(capsys, "count", "--modulus", "8", "--size", "6",
                           "--target", "id", "--method", "brute")
    assert code == 2
    assert "budget" in err


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_count_rejects_a_bad_budget_variable(capsys, monkeypatch, value):
    monkeypatch.setenv("QUIDDITY_BUDGET", value)
    code, out, err = run_cli(capsys, "count", "--modulus", "12", "--size", "5",
                             "--method", "brute")
    assert code == 2
    assert out == ""
    assert err == f"error: QUIDDITY_BUDGET must be a positive integer, got {value!r}\n"


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


def test_table_text_matches_cli(capsys):
    code, out, _ = run_cli(capsys, "table", "--which", "odd-w-plus")
    assert out == table_text("odd-w-plus")


def test_verify_recursion_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "recursion",
                           "--m", "2,3", "--sizes", "5..10")
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out


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


def test_crt_subcommand(capsys):
    report = run_json(capsys, "crt", "--modulus", "24", "--size", "5", "--sign", "+")
    assert report["count"] == "800"
    assert report["factorization"] == {"two_exponent": 3, "odd_primes": [3]}
    assert report["pieces"] == [
        {"modulus": 8, "count": "80", "source": "formula"},
        {"modulus": 3, "count": "10", "source": "formula"},
    ]


def test_crt_rejects_non_squarefree(capsys):
    code, _, err = run_cli(capsys, "crt", "--modulus", "36", "--size", "5")
    assert code == 2


def test_module_entry_point_runs():
    # The child finds the package where this process found it, installed or not.
    src = str(Path(quiddity.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run(
        [sys.executable, "-m", "quiddity", "table", "--which", "w8", "--rows", "2,3"],
        capture_output=True, text=True, check=True, env=env)
    assert out.stdout == "n,count\n2,1\n3,2\n"
