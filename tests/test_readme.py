"""Every `quiddity ...` example in the README's CLI section runs and exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from quiddity.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_examples() -> list[str]:
    text = README.read_text()
    section = re.search(r"^## CLI\n(.*?)^## ", text, re.S | re.M).group(1)
    lines = [line.split("#")[0].strip() for line in section.splitlines()]
    # `verify --suite all` repeats the suites listed one by one above it.
    return [line for line in lines
            if line.startswith("quiddity ") and line != "quiddity verify --suite all"]


def test_readme_has_cli_examples():
    assert len(cli_examples()) >= 10


@pytest.mark.parametrize("line", cli_examples())
def test_readme_cli_example_runs(capsys, line):
    code = main(shlex.split(line)[1:])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out
