"""Byte-for-byte pins of the CLI output, and a run of the full-verification
script against the same pin.

Each file in tests/golden/ is the stdout of one command line below, with
MINREP_BUDGET unset.  The files were written by the code before the Weyl
enumerations shared one kernel; a change that alters any byte of a verdict,
an evidence string or a table cell fails here.
"""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from minrep import cli

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).parent.parent

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
def test_cli_output_matches_golden(name, capsys, monkeypatch):
    monkeypatch.delenv("MINREP_BUDGET", raising=False)
    assert cli.main(CASES[name]) == 0
    assert capsys.readouterr().out == _golden(name)


def test_full_verification_script_matches_golden():
    env = dict(os.environ)
    env.pop("MINREP_BUDGET", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_full_verification.py"),
         "--jobs", "1"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # the script prints the report rows of `minrep verify` without its
    # closing blank line and overall line
    rows = _golden("verify.md").split("\n\n")[0] + "\n"
    assert proc.stdout == rows
    # one tally line per check on stderr, counting the golden rows
    counts = Counter()
    for row in rows.splitlines()[2:]:
        _, check, status, _ = row.split(" | ", 3)
        counts[check, status] += 1
    *tallies, overall = proc.stderr.splitlines()
    assert [line.split() for line in tallies] == [
        [name, str(counts[name, "pass"]), "pass", str(counts[name, "skipped"]),
         "skipped", str(counts[name, "fail"]), "fail"]
        for name in cli.CHECK_NAMES]
    assert overall.startswith("overall: pass (612 reports, ")
