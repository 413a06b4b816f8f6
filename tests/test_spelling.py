"""One spelling for a spec.

A letter constraint is read by ``spec.parse_constraint`` and written by its
inverse ``spec.constraint_text``; a target is written by
``sl2.target_label``.  The CLI reports the written constraint, and every
bijection name carries these two labels.
"""

import json

import pytest

from quiddity import crt, maps, reference
from quiddity.cli import main
from quiddity.modring import Modulus
from quiddity.sl2 import Mat2, identity, target_label
from quiddity.spec import (ANY, NONUNIT, UNIT, SetSpec, constraint_text, fixed,
                           normalize_constraints, parse_constraint)


def count_s(capsys, constraint):
    """count over Z/8Z at size 6 and target S: (exit code, report without
    elapsed_ms or None, stderr)."""
    code = main(["count", "--modulus", "8", "--size", "6", "--target", "s",
                 "--constraint", constraint])
    out, err = capsys.readouterr()
    report = json.loads(out) if out else None
    if report:
        del report["elapsed_ms"]
    return code, report, err


def expected(constraint, method, count):
    return {"modulus": 8, "size": 6, "target": "s", "constraint": constraint,
            "method": method, "count": count}


@pytest.mark.parametrize("spelled", ["a03-unit", "a\u0663-unit", "a3-unit"],
                         ids=["leading-zero", "arabic-indic", "canonical"])
def test_a_report_echoes_the_canonical_constraint(capsys, spelled):
    assert count_s(capsys, spelled) == (0, expected("a3-unit", "dp", "384"), "")


@pytest.mark.parametrize("spelled, method, count", [
    ("a1=-1", "dp", "80"),
    ("a2-unit", "formula", "384"),
    ("none", "dp", "640"),
])
def test_a_canonical_spelling_reports_itself(capsys, spelled, method, count):
    assert count_s(capsys, spelled) == (0, expected(spelled, method, count), "")


@pytest.mark.parametrize("text", ["b2-unit", "a2=", "a-unit", "a2=unit", "a2-units"])
def test_a_malformed_constraint_exits_two_naming_it(capsys, text):
    assert count_s(capsys, text) == (2, None, f"error: cannot parse constraint {text!r} "
                                              "(want aK-unit, aK-nonunit or aK=V)\n")


@pytest.mark.parametrize("con", [UNIT, NONUNIT, fixed(0), fixed(5), fixed(-1)],
                         ids=["unit", "nonunit", "fixed-0", "fixed-5", "fixed-minus-1"])
@pytest.mark.parametrize("pos", [1, 2, 11])
def test_the_reader_inverts_the_writer(pos, con):
    text = constraint_text(pos, con)
    assert parse_constraint(text) == {pos: con}
    assert constraint_text(*parse_constraint(text).popitem()) == text


def test_an_unconstrained_letter_is_written_none():
    # a spec drops "any" entries, so none reads back as no constraint at all
    assert constraint_text(3, ANY) == "none"
    assert parse_constraint("none") == {} == normalize_constraints({3: ANY}, 5, Modulus(8))


@pytest.mark.parametrize("constraints, letters", [
    ({}, ""),
    ({2: UNIT}, ", a2-unit"),
    ({3: fixed(7)}, ", a3=7"),
    ({2: UNIT, 4: fixed(-1)}, ", a2-unit, a4=11"),
])
def test_a_crt_split_names_its_letters_as_the_cli_reads_them(constraints, letters):
    spec = SetSpec(5, identity(Modulus(12)), constraints)
    assert crt.crt_split_bijection(spec).name == f"crt-split(n=5, N=12, target=id{letters})"


def test_an_unnamed_target_has_one_label():
    modulus = Modulus(12)
    target = Mat2(2, 1, 1, 1, modulus)
    assert target_label(target) == "2,1,1,1"
    assert target_label(-identity(modulus)) == "neg-id"
    split = crt.crt_split_bijection(SetSpec(5, target))
    dropped = maps.drop_minus_one_bijection(5, modulus, target)
    assert split.name == "crt-split(n=5, N=12, target=2,1,1,1)"
    assert dropped.name == "drop-minus-one(n=5, N=12, target=2,1,1,1)"


@pytest.mark.parametrize("text, values", [
    ("-2..1", [-2, -1, 0, 1]), ("4,8", [4, 8]), ("7", [7]), (" 3..5 ", [3, 4, 5]),
    ("5..", None), ("..3", None), ("4,x", None)])
def test_integer_lists_and_ranges(text, values):
    if values is None:  # malformed: the message names the text and the accepted forms
        with pytest.raises(ValueError) as err:
            reference._parse_ints(text)
        assert str(err.value) == (f"{text!r} is neither an integer list nor a range; "
                                  "want e.g. 3..10 or 3,5,7")
    else:
        assert reference._parse_ints(text) == values
