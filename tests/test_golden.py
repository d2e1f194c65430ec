"""Byte-for-byte pins of the CLI output.

Each file in tests/golden/ is the stdout of one command line below.  The
`verify` and `table` files were written by the code before the Weyl
enumerations shared one kernel, the `weyl` files before the per-system
data moved onto RootSystem, `verify_brute_default_w0_unique.md` by the
brute search that visited every element of W_K,
`verify_brute_w0_unique.json` by the brute search that walked the orbit
of the last fundamental weight times its stabilizer,
`verify_brute_e8C_w0_unique.md` while a second enumeration strategy
(the beta stabilizer and its w_l coset) still stood beside brute, and
`weyl_subsystem_D6.txt` and `weyl_subsystem_A1d.txt` by the builds that
fell back to the definition when their walk could not certify a listing,
`weyl_subsystem_C4.txt` by the build that selected the orthogonal roots
one by one instead of conjugating a parabolic back from the chamber;
a change that alters any byte of a verdict, an evidence string, a table
cell, a longest word or a subsystem type fails here.
"""

from pathlib import Path

import pytest

from minrep import cli

from fraction_reference import ALL_LABELS

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "verify.md": ["verify"],
    "verify_budget.json": ["verify", "--format", "json", "--budget", "1000000"],
    "verify_brute_w0_unique.md": [
        "verify", "--strategy", "brute", "--check", "w0_unique",
        "--budget", "1000000"],
    "verify_brute_w0_unique.json": [
        "verify", "--strategy", "brute", "--check", "w0_unique",
        "--format", "json", "--budget", "1000000"],
    # brute's budget gates |W(E8)|, although it walks W(E7) and the
    # 240-point orbit of beta
    "verify_brute_e8C_w0_unique.md": [
        "verify", "--strategy", "brute", "--check", "w0_unique",
        "--record", "e8(C)", "--budget", "1000000000"],
    # at the default budget e8(-24), e8(8) and e7(C) pass too: 23 pass rows
    "verify_brute_default_w0_unique.md": [
        "verify", "--strategy", "brute", "--check", "w0_unique"],
}
TABLE_FORMATS = (("markdown", "md"), ("csv", "csv"), ("json", "json"),
                 ("latex", "tex"))
CASES.update({f"table_{table}.{ext}": ["table", table, "--format", fmt]
              for table in cli.TABLES for fmt, ext in TABLE_FORMATS})
CASES.update({f"weyl_longest_{label}.txt": ["weyl", "longest", label]
              for label in ALL_LABELS})
CASES.update({
    "weyl_order_F4.txt": ["weyl", "order", "F4"],
    # counted by orbit-stabilizer, like every order; the group is never walked
    "weyl_order_E8.txt": ["weyl", "order", "E8"],
    # at the rank cap, written before the positive roots were generated
    "weyl_order_D16.txt": ["weyl", "order", "D16"],
    "weyl_order_B16.txt": ["weyl", "order", "B16"],
    "weyl_longest_C16.txt": ["weyl", "longest", "C16"],
    "weyl_subsystem_E8.txt": ["weyl", "subsystem", "E8",
                              "--orthogonal-to", "0,0,0,0,0,0,1,1"],
    "weyl_subsystem_G2.txt": ["weyl", "subsystem", "G2", "--orthogonal-to=-1,0,1"],
    # a reducible subsystem: its type is named in the sorted simple-root order
    "weyl_subsystem_D6.txt": ["weyl", "subsystem", "D6",
                              "--orthogonal-to", "1,1,0,0,0,0"],
    # no positive root is orthogonal to the one of A1d
    "weyl_subsystem_A1d.txt": ["weyl", "subsystem", "A1d", "--orthogonal-to", "1,-1"],
    # off the dominant chamber: the dominant conjugate's parabolic, not
    # conjugated back, would name its components in the order B2xA1
    "weyl_subsystem_C4.txt": ["weyl", "subsystem", "C4", "--orthogonal-to", "0,0,1,1"],
})


def _golden(name: str) -> str:
    return (GOLDEN / name).read_bytes().decode("utf-8")


def test_every_golden_file_has_a_command():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    assert cli.main(CASES[name]) == 0
    assert capsys.readouterr().out == _golden(name)
