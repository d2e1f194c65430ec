"""Byte-for-byte pins of the CLI output.

Each file in tests/golden/ is the stdout of one command line below.  The
files were written by the code before the Weyl enumerations shared one
kernel; a change that alters any byte of a verdict, an evidence string or a
table cell fails here.
"""

from pathlib import Path

import pytest

from minrep import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "verify.md": ["verify"],
    "verify_budget.json": ["verify", "--format", "json", "--budget", "1000000"],
    "verify_reduced_w0_unique.json": [
        "verify", "--strategy", "reduced", "--check", "w0_unique",
        "--format", "json", "--budget", "1000000"],
    "verify_brute_w0_unique.md": [
        "verify", "--strategy", "brute", "--check", "w0_unique",
        "--budget", "1000000"],
}
TABLE_FORMATS = (("markdown", "md"), ("csv", "csv"), ("json", "json"),
                 ("latex", "tex"))
CASES.update({f"table_{table}.{ext}": ["table", table, "--format", fmt]
              for table in cli.TABLES for fmt, ext in TABLE_FORMATS})


def _golden(name: str) -> str:
    return (GOLDEN / name).read_bytes().decode("utf-8")


def test_every_golden_file_has_a_command():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    assert cli.main(CASES[name]) == 0
    assert capsys.readouterr().out == _golden(name)
