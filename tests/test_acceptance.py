"""End-to-end acceptance suite.

Each test pins one deliverable of the package: exact table cells,
line-preserver uniqueness on every non-Hermitian record, the worked
e8(-24) chain, lattice periods, tangent dimensions, module counts,
structural properties of the reflection machinery, and the
falsifiability of every check.  Timing bounds use integer nanosecond
clocks throughout.
"""

import json
import time
from fractions import Fraction as Q

import pytest

from minrep import registry
from minrep.cli import main
from minrep.registry import all_default_records, builtin_records, find_record
from minrep.rootsys import (
    KSpace,
    dot,
    make_root_system,
    trace_free_canonical,
    weight,
)
from minrep.verify import VerifyConfig, run_check
from minrep.weyl import (
    apply,
    line_preservers,
    word,
)

from fraction_reference import orbit_size, positive_roots, reflect


def _ms(start_ns: int) -> int:
    return (time.perf_counter_ns() - start_ns) // 1_000_000


def _run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# 1. the summary tables reproduce the published cells, each under 5 seconds


def test_counts_table_reproduces_all_classes(capsys):
    start = time.perf_counter_ns()
    code, out = _run_cli(capsys, "table", "numbers")
    assert code == 0
    counts = [line.split("|")[2].strip() for line in out.splitlines()[2:8]]
    assert counts == ["4", "2", "1", "0", "2", "1"]
    assert all(line.split("|")[3].strip() == "yes"
               for line in out.splitlines()[2:8])
    assert _ms(start) < 5000


DATA1_CELLS = {
    "f4(4)": ("((3,2,1),(1,-1))", "(0,(1,-1))", "((1,1,1),(1,-1))"),
    "e6(2)": ("((5/2,3/2,1/2,-1/2,-3/2,-5/2),(1,-1))", "(0,(2,-2))",
              "((1/2,1/2,1/2,-1/2,-1/2,-1/2),(1,-1))"),
    "e7(-5)": ("((5,4,3,2,1,0),(1,-1))", "(0,(4,-4))",
               "((1/2,1/2,1/2,1/2,1/2,1/2),(1,-1))"),
    "e8(-24)": ("((0,1,2,3,4,5,-17/2,17/2),(1,-1))", "(0,(8,-8))",
                "((0,0,0,0,0,1,-1/2,1/2),(1,-1))"),
    "g2(2)": ("((1,-1),(1,-1))", "((2,-2),0)", "((3,-3),(1,-1))"),
    "e6(6)": ("(4,3,2,1)", "0", "(1,1,1,1)"),
    "e7(7)": ("(7/2,5/2,3/2,1/2,-1/2,-3/2,-5/2,-7/2)", "0",
              "(1/2,1/2,1/2,1/2,-1/2,-1/2,-1/2,-1/2)"),
    "e8(8)": ("(7,6,5,4,3,2,1,0)", "0",
              "(1/2,1/2,1/2,1/2,1/2,1/2,1/2,1/2)"),
}

DATA2_CELLS = {
    "f4(4)": ("((1,0,-1),0)", "s(e1+e3)s(e2)s(f1-f2)"),
    "e6(2)": ("((1,0,-1,1,0,-1),0)", "s(e1-e4)s(e2-e5)s(e3-e6)s(f1-f2)"),
    "e7(-5)": ("((5/2,3/2,1/2,-1/2,-3/2,-5/2),0)",
               "s(e1+e6)s(e2+e5)s(e3+e4)s(f1-f2)"),
    "e8(-24)": ("((0,1,2,3,4,-4,-4,4),0)",
                "s(e5+e6)s((-e1+e2+e3-e4+e5-e6+e7-e8)/2)"
                "s((e1-e2-e3+e4+e5-e6+e7-e8)/2)s(f1-f2)"),
    "g2(2)": ("0", "s(e1-e2)s(f1-f2)"),
    "e6(6)": ("(3/2,1/2,-1/2,-3/2)", "s(e1+e4)s(e2+e3)"),
    "e7(7)": ("(3/2,1/2,-1/2,-3/2,3/2,1/2,-1/2,-3/2)",
              "s(e1-e5)s(e2-e6)s(e3-e7)s(e4-e8)"),
    "e8(8)": ("(7/2,5/2,3/2,1/2,-1/2,-3/2,-5/2,-7/2)",
              "s(e1+e8)s(e2+e7)s(e3+e6)s(e4+e5)"),
}


def _table_rows(out):
    rows = {}
    for line in out.splitlines()[2:]:
        if not line.startswith("| "):
            break
        cells = [c.strip() for c in line.split("|")[1:-1]]
        rows[cells[0]] = tuple(cells[1:])
    return rows


def test_line_data_table_cells_are_exact(capsys):
    start = time.perf_counter_ns()
    code, out = _run_cli(capsys, "table", "data1")
    assert code == 0
    rows = _table_rows(out)
    for name, cells in DATA1_CELLS.items():
        assert rows[name][:3] == cells, name
        assert rows[name][3] == "yes"
    assert _ms(start) < 5000


def test_line_symmetry_table_cells_are_exact(capsys):
    start = time.perf_counter_ns()
    code, out = _run_cli(capsys, "table", "data2")
    assert code == 0
    rows = _table_rows(out)
    for name, cells in DATA2_CELLS.items():
        assert rows[name][:2] == cells, name
        assert rows[name][2] == "yes"
    assert _ms(start) < 5000


def test_remaining_tables_render_under_budget(capsys):
    for table in ("infchar", "hermitian", "nonhermitian"):
        start = time.perf_counter_ns()
        code, out = _run_cli(capsys, "table", table)
        assert code == 0 and out.count("\n") >= 3
        assert _ms(start) < 5000, table


# ---------------------------------------------------------------------------
# 2. uniqueness of the line preserver on every non-Hermitian record


def _uniqueness_pool():
    return [r for r in all_default_records()
            if r.modules and not r.hermitian and len(r.g_complex) == 1]


def test_uniqueness_pool_covers_all_count_one_classes():
    names = {r.name for r in _uniqueness_pool()}
    assert {"f4(4)", "e6(2)", "e7(-5)", "e8(-24)", "g2(2)", "e6(6)",
            "e7(7)", "e8(8)", "so(4,4)", "so(5,3)", "so(4,3)"} <= names


@pytest.mark.parametrize("record", _uniqueness_pool(), ids=lambda r: r.name)
def test_preserver_formula_and_uniqueness(record):
    report = run_check("w0_formula", record)
    assert report.status == "pass", report.evidence

    # brute's budget gates |W_K|, at most 10**7 on the whole pool
    start = time.perf_counter_ns()
    brute = run_check("w0_unique", record, VerifyConfig(strategy="brute", budget=10 ** 7))
    assert brute.status == "pass", brute.evidence
    assert "identity, w0" in brute.evidence
    assert _ms(start) < 60_000, f"brute on {record.name}"

    # the closed form returns exactly the enumerated set
    for beta in {m.beta for m in record.modules}:
        chamber = line_preservers(record.space, beta, record.xi0, "chamber")
        assert chamber == line_preservers(record.space, beta, record.xi0,
                                          "brute", budget=10 ** 7)


# ---------------------------------------------------------------------------
# 3. the worked quaternionic chain on e8(-24), under one second


def test_e8_minus24_worked_chain():
    start = time.perf_counter_ns()
    r = find_record("e8(-24)")
    space, xi0 = r.space, r.xi0
    h = Q(1, 2)
    eta1 = weight(space, (h, -h, -h, h, h, -h, h, -h), (0, 0))
    eta2 = weight(space, (-h, h, h, -h, h, -h, h, -h), (0, 0))
    e5_plus_e6 = weight(space, (0, 0, 0, 0, 1, 1, 0, 0), (0, 0))
    f1_minus_f2 = weight(space, (0,) * 8, (1, -1))
    for probe in (eta1, eta2, e5_plus_e6, f1_minus_f2):
        for f in range(2):
            assert dot(xi0.factors[f], probe.factors[f]) == 0
    assert apply(space, r.w0, xi0) == xi0
    beta = r.modules[0].beta
    image = apply(space, r.w0, beta)
    assert image.factors == tuple(tuple(-c for c in v) for v in beta.factors)
    assert _ms(start) < 1000


# ---------------------------------------------------------------------------
# 4. lattice periods: 1/2 exactly on the metaplectic families


HALF_PERIOD = ("sp(2,R)", "sp(3,R)", "sp(5,R)", "sp(2,C)", "sp(3,C)")


def test_period_one_half_on_metaplectic_families():
    for name in HALF_PERIOD:
        report = run_check("period", find_record(name))
        assert report.status == "pass"
        assert "1/2" in report.evidence, name


def test_period_one_everywhere_else():
    others = [r for r in all_default_records()
              if r.modules and r.name not in HALF_PERIOD]
    assert len(others) >= 15
    for r in others:
        report = run_check("period", r)
        assert report.status == "pass", (r.name, report.evidence)
        assert "period 1" in report.evidence, r.name


# ---------------------------------------------------------------------------
# 5. tangent-space dimensions


KNOWN_P_DIMS = {"e8(8)": 128, "f4(4)": 28, "e6(2)": 40, "g2(2)": 8}


def test_p_dimension_passes_on_every_record_with_summands():
    for r in all_default_records():
        report = run_check("p_dimension", r)
        if not r.p_summands:
            assert report.status == "skipped", r.name
            continue
        assert report.status == "pass", (r.name, report.evidence)
        expected = KNOWN_P_DIMS.get(r.name)
        if expected is not None:
            assert f"dimensions {expected} ==" in report.evidence


# ---------------------------------------------------------------------------
# 6. module counts with exact disjointness certificates


def test_counts_and_separators():
    # every pair of ladders is decided exactly, for all rungs
    for r in all_default_records():
        report = run_check("count_and_disjoint", r)
        assert report.status == "pass", (r.name, report.evidence)
        if r.family == "sp_R":
            assert len(r.modules) == 4
        elif r.family == "sp_C" or r.hermitian:
            assert len(r.modules) == 2
        else:
            assert len(r.modules) in (0, 1)
            continue
        assert report.evidence == (f"count {len(r.modules)} as expected; "
                                   "ladders never meet (exact, all rungs)")


# ---------------------------------------------------------------------------
# 7. structural property suite, under 60 seconds total


GROUP_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120,
    "B2": 8, "B3": 48, "B4": 384,
    "C2": 8, "C3": 48, "C4": 384,
    "D3": 24, "D4": 192, "D5": 1920, "D6": 23040,
    "G2": 12, "F4": 1152, "E6": 51840,
}


def test_structural_properties():
    start = time.perf_counter_ns()

    # reflections are involutions that negate their root
    for label in ("A2", "B3", "G2", "F4"):
        rs = make_root_system(label)
        lam = rs.rho
        for alpha in positive_roots(rs):
            assert reflect(alpha, alpha) == tuple(-c for c in alpha)
            assert reflect(reflect(lam, alpha), alpha) == lam

    # enumerated group orders match the closed forms
    for label, order in GROUP_ORDERS.items():
        rs = make_root_system(label)
        assert rs.order == order, label
        assert orbit_size(rs) == order, label

    # canonicalization is idempotent and dominance-stable
    a2 = make_root_system("A2")
    space = KSpace((a2, make_root_system("A1d")), 1)
    lam = weight(space, (3, 1, -1), (5, -5), center=(Q(7, 2),))
    once = trace_free_canonical(space, lam)
    assert trace_free_canonical(space, once) == once

    assert _ms(start) < 60_000


# ---------------------------------------------------------------------------
# 8. every check is falsifiable: a broken record makes it fail, and the
#    command line reports the failure with exit code 1


def _mutators():
    shift = Q(1, 7)

    def bump_weight(w, factor=0):
        body = list(w.factors)
        body[factor] = (body[factor][0] + 1,) + body[factor][1:]
        return w._replace(factors=tuple(body))

    def bad_rho(r):
        return r._replace(rho=bump_weight(r.rho))

    def bad_ladder(r):
        m = r.modules[0]
        rogue = m._replace(beta=m.beta._replace(
            factors=((0, -1),) + m.beta.factors[1:]))
        return r._replace(modules=(rogue,) + r.modules[1:])

    def bad_xi0(r):
        return r._replace(xi0=bump_weight(r.xi0))

    def bad_w0(r):
        return r._replace(w0=word(r.space, [(0, (1, 0, 1, 0, 0, 0, 0, 0))]))

    def bad_count(r):
        return r._replace(modules=r.modules[:-1])

    def bad_infchar(r):
        rows = tuple(row[:-1] + (row[-1] + shift,) for row in r.infchar)
        return r._replace(infchar=rows)

    return {
        "rho": ("e6(6)", bad_rho),
        "p_dimension": ("e6(6)", lambda r: r._replace(
            p_summands=(bump_weight(r.p_summands[0]),))),
        "ladder_wellformed": ("so(4,3)", bad_ladder),
        "xi0": ("e6(6)", bad_xi0),
        "w0_table": ("e8(8)", bad_w0),
        "w0_formula": ("e8(8)", bad_w0),
        "w0_unique": ("g2(2)", lambda r: r._replace(w0=word(r.space, [(0, (2, -2))]))),
        "same_line": ("e8(8)", bad_w0),
        "period": ("e7(7)", lambda r: r._replace(g_complex=("C7",))),
        "count_and_disjoint": ("e8(8)", bad_count),
        "complex_beta": ("g2(C)", lambda r: r._replace(modules=(
            r.modules[0]._replace(beta=r.modules[0].beta._replace(
                factors=((Q(1), Q(-1), Q(0)),))),
        ) + r.modules[1:])),
        "infchar_coords": ("e6(6)", bad_infchar),
    }


def test_every_check_fails_on_a_broken_record():
    for check, (name, mutate) in _mutators().items():
        broken = mutate(find_record(name))
        report = run_check(check, broken)
        assert report.status == "fail", (check, report.status,
                                         report.evidence)


def test_cli_exits_one_on_failing_catalog(capsys, tmp_path):
    recs = [r for r in builtin_records() if r.name == "e6(6)"]
    doc = json.loads(registry.save(recs))
    doc["records"][0]["rho"]["factors"][0] = ["9", "3", "2", "1"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    code, out = _run_cli(capsys, "verify", "--records", str(path),
                         "--check", "rho")
    assert code == 1
    assert "overall: fail" in out
