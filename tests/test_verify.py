"""Check layer: positive runs on fast records, negative controls by
mutating fixtures, runner determinism, filters, and parallel execution."""

import dataclasses
from fractions import Fraction as Q

import pytest

from minrep.registry import MinimalModuleRecord, find_record, instantiate_family
from minrep.rootsys import weight, weight_add
from minrep.verify import (
    CHECK_NAMES,
    DEFAULT_CONFIG,
    VerifyConfig,
    casimir_along_ladder,
    check_complex_beta,
    check_count_and_disjoint,
    check_infchar_coords,
    check_ladder_wellformed,
    check_p_dimension,
    check_period,
    check_rho,
    check_same_line,
    check_w0_formula,
    check_w0_table,
    check_w0_unique,
    check_xi0,
    run_all,
    run_check,
    suite_status,
)
from minrep.weyl import word

FAST_RECORDS = ["f4(4)", "g2(2)", "e6(6)", "sp(2,R)", "sp(2,C)", "so(4,3)",
                "so(5,2)", "g2(C)", "so(6,1)", "sp(2)", "so(5,4)", "e6(-14)"]


def mutate(r, **kw):
    return dataclasses.replace(r, **kw)


# ---------------------------------------------------------------------------
# positive runs


def test_all_checks_pass_or_skip_on_fast_records():
    for name in FAST_RECORDS:
        for rep in run_all([find_record(name)]):
            assert rep.status in ("pass", "skipped"), \
                (rep.record, rep.check, rep.evidence)


def test_report_shape_is_uniform():
    reports = run_all([find_record("so(6,1)")])
    assert [rep.check for rep in reports] == list(CHECK_NAMES)
    by_name = {rep.check: rep.status for rep in reports}
    assert by_name["rho"] == "pass"
    assert by_name["p_dimension"] == "pass"
    assert by_name["count_and_disjoint"] == "pass"
    assert by_name["ladder_wellformed"] == "skipped"
    assert by_name["w0_unique"] == "skipped"
    assert by_name["complex_beta"] == "skipped"


def test_compact_record_skips_p_dimension():
    rep = check_p_dimension(find_record("sp(2)"))
    assert rep.status == "skipped"
    assert "compact" in rep.evidence


def test_hermitian_record_skips_line_checks():
    r = find_record("e6(-14)")
    for fn in (check_xi0, check_w0_table, check_w0_formula, check_w0_unique,
               check_same_line):
        rep = fn(r)
        assert rep.status == "skipped"
        assert "one-sided" in rep.evidence


def test_same_line_shift_value_on_worked_example():
    rep = check_same_line(find_record("e8(-24)"))
    assert rep.status == "pass"
    assert "c = -18" in rep.evidence


def test_xi0_scalar_on_worked_example():
    rep = check_xi0(find_record("e8(-24)"))
    assert rep.status == "pass" and "c = 9" in rep.evidence


def test_w0_formula_names_the_orthogonal_subsystem():
    rep = check_w0_formula(find_record("e6(6)"))
    assert rep.status == "pass" and "A3" in rep.evidence


def test_count_separators_for_the_four_module_record():
    rep = check_count_and_disjoint(find_record("sp(2,R)"))
    assert rep.status == "pass"
    assert "center-charge sign" in rep.evidence
    assert "center-charge congruence" in rep.evidence


def test_count_separator_parity_for_the_even_odd_pair():
    rep = check_count_and_disjoint(find_record("sp(2,C)"))
    assert rep.status == "pass"
    assert "coordinate-sum parity" in rep.evidence


def test_complex_beta_positive():
    rep = check_complex_beta(find_record("g2(C)"))
    assert rep.status == "pass"
    rep = check_complex_beta(find_record("f4(4)"))
    assert rep.status == "skipped"


def test_w0_unique_brute_matches_reduced_on_small_records():
    for name in ["f4(4)", "g2(2)", "so(4,3)", "sp(2,C)"]:
        r = find_record(name)
        brute = check_w0_unique(r, VerifyConfig(strategy="brute"))
        reduced = check_w0_unique(r, VerifyConfig(strategy="reduced"))
        assert brute.status == reduced.status == "pass", name


def test_w0_unique_budget_skip_names_the_order():
    rep = check_w0_unique(find_record("e6(6)"),
                          VerifyConfig(strategy="reduced", budget=2))
    assert rep.status == "skipped"
    assert "above budget 2" in rep.evidence


def test_w0_unique_chamber_budget_bounds_the_parabolic():
    # xi0 = 0 is fixed by all of W_beta, so the parabolic P is the whole
    # stabilizer; the catalog's own xi0 has P trivial under any budget
    r = find_record("e6(6)")
    zero = weight(r.space, *([0] * rs.ambient for rs in r.space.factors))
    rep = check_w0_unique(mutate(r, xi0=zero), VerifyConfig(budget=2))
    assert rep.status == "skipped"
    assert "above budget 2 for strategy chamber" in rep.evidence
    assert check_w0_unique(r, VerifyConfig(budget=1)).status == "pass"


def test_w0_unique_fails_when_the_closed_form_is_wrong(monkeypatch):
    # dropping w_beta,l from the coset branch leaves a survivor that breaks
    # the definition; the self-check must turn that into a fail
    import minrep.weyl

    monkeypatch.setattr(minrep.weyl, "space_subgroup_longest",
                        lambda space, subs: word(space, []))
    rep = check_w0_unique(find_record("f4(4)"))
    assert rep.status == "fail"
    assert "strategy chamber" in rep.evidence


# ---------------------------------------------------------------------------
# negative controls: every check must fail on a mutated fixture


def test_rho_control():
    r = find_record("f4(4)")
    shift = weight(r.space, (1, 0, 0), (0, 0))
    rep = check_rho(mutate(r, rho=weight_add(r.rho, shift)))
    assert rep.status == "fail" and "computed half-sum" in rep.evidence


def test_rho_skip_when_missing():
    assert check_rho(mutate(find_record("f4(4)"), rho=None)).status == "skipped"


def test_p_dimension_control():
    r = find_record("e6(-14)")
    rep = check_p_dimension(mutate(r, p_summands=r.p_summands[:1]))
    assert rep.status == "fail" and "16 != " in rep.evidence


def test_ladder_wellformed_control():
    r = find_record("f4(4)")
    bad_beta = weight(r.space, (1, 1, -1), (1, -1))
    bad = MinimalModuleRecord("minimal", r.modules[0].mu0, bad_beta)
    rep = check_ladder_wellformed(mutate(r, modules=(bad,)))
    assert rep.status == "fail" and "not dominant" in rep.evidence


def test_xi0_control():
    r = find_record("f4(4)")
    skew = weight(r.space, (1, 0, 0), (0, 0))
    rep = check_xi0(mutate(r, xi0=weight_add(r.xi0, skew)))
    assert rep.status == "fail" and "factor 0" in rep.evidence


def test_w0_table_control():
    r = find_record("f4(4)")
    rep = check_w0_table(mutate(r, w0=word(r.space, [(0, (1, 0, 1))])))
    assert rep.status == "fail" and "w0(beta)" in rep.evidence


def test_w0_formula_control():
    r = find_record("f4(4)")
    rep = check_w0_formula(mutate(r, w0=word(r.space, [(0, (1, 0, 1))])))
    assert rep.status == "fail"


def test_w0_unique_control():
    r = find_record("g2(2)")
    rep = check_w0_unique(mutate(r, w0=word(r.space, [(0, (1, -1))])))
    assert rep.status == "fail" and "unexpected" in rep.evidence


def test_same_line_control():
    r = find_record("f4(4)")
    rep = check_same_line(mutate(r, w0=word(r.space, [(0, (1, 0, 1))])))
    assert rep.status == "fail" and "not a multiple of beta" in rep.evidence


def test_period_control():
    rep = check_period(mutate(find_record("e7(7)"), family="sp_R"))
    assert rep.status == "fail" and "expected 1/2" in rep.evidence


def test_count_control():
    rep = check_count_and_disjoint(mutate(find_record("e8(8)"), expected_count=2))
    assert rep.status == "fail" and "expected 2" in rep.evidence


def test_disjointness_control_without_separator():
    r = find_record("sp(2,C)")
    clone = dataclasses.replace(r.modules[0], label="clone")
    rep = check_count_and_disjoint(mutate(r, modules=(r.modules[0], clone)))
    assert rep.status == "fail" and "no symbolic separator" in rep.evidence


def test_complex_beta_control():
    r = find_record("g2(C)")
    bad = MinimalModuleRecord("minimal", r.modules[0].mu0,
                              weight(r.space, (1, -1, 0)))
    rep = check_complex_beta(mutate(r, modules=(bad,)))
    assert rep.status == "fail" and "highest" in rep.evidence


def test_infchar_control():
    r = find_record("g2(C)")
    rep = check_infchar_coords(mutate(r, infchar=((Q(1), Q(1)),) * 2))
    assert rep.status == "fail" and "G2 pattern" in rep.evidence


# ---------------------------------------------------------------------------
# runner


def _keys(reports):
    return [(rep.record, rep.check, rep.status, rep.evidence) for rep in reports]


def test_run_all_deterministic_order():
    records = [find_record("g2(2)"), find_record("sp(2,R)")]
    first, second = run_all(records), run_all(records)
    assert _keys(first) == _keys(second)
    assert [rep.record for rep in first] == ["g2(2)"] * 12 + ["sp(2,R)"] * 12


def test_run_all_record_filter_normalizes():
    reports = run_all(record="G2(2)")
    assert {rep.record for rep in reports} == {"g2(2)"}
    assert len(reports) == 12
    with pytest.raises(KeyError, match="no record named"):
        run_all(record="sl(2,R)")


def test_run_all_family_filter():
    reports = run_all(family="sp_R", checks=["period"])
    assert [rep.record for rep in reports] == ["sp(2,R)", "sp(3,R)", "sp(5,R)"]
    assert all(rep.status == "pass" for rep in reports)
    with pytest.raises(KeyError, match="no records in family"):
        run_all(family="su_star")


def test_run_all_rejects_unknown_check():
    with pytest.raises(ValueError, match="unknown check"):
        run_all([find_record("g2(2)")], checks=["rho", "bogus"])
    with pytest.raises(ValueError, match="unknown check"):
        run_check("bogus", find_record("g2(2)"))


def test_suite_status_reflects_failures():
    r = find_record("g2(2)")
    good = run_all([r], checks=["rho", "period"])
    assert suite_status(good) == "pass"
    bad = run_all([mutate(r, expected_count=5)], checks=["count_and_disjoint"])
    assert suite_status(bad) == "fail"


def test_parallel_jobs_agree_with_serial():
    records = [find_record("g2(2)"), find_record("sp(2,C)")]
    serial = run_all(records, config=VerifyConfig(jobs=1))
    parallel = run_all(records, config=VerifyConfig(jobs=2))
    assert _keys(serial) == _keys(parallel)


def test_check_wrappers_set_check_name():
    r = find_record("g2(2)")
    assert check_rho(r).check == "rho"
    assert check_period(r).check == "period"
    assert check_count_and_disjoint(r).record == "g2(2)"
    assert check_rho(r).duration_ms >= 0


def test_default_config_values():
    assert DEFAULT_CONFIG.strategy == "chamber"
    assert DEFAULT_CONFIG.rung_cap == 50
    assert DEFAULT_CONFIG.budget == 10 ** 7
    assert DEFAULT_CONFIG.jobs == 1


# ---------------------------------------------------------------------------
# ladder properties


def test_casimir_strictly_increases_along_every_ladder():
    for name in FAST_RECORDS + ["e7(7)", "e8(8)", "e7(-25)", "so(6,4)"]:
        r = find_record(name)
        for idx in range(len(r.modules)):
            values = casimir_along_ladder(r, idx, rungs=10)
            assert all(a < b for a, b in zip(values, values[1:])), \
                (name, r.modules[idx].label)


def test_rung_cap_is_honored():
    r = find_record("sp(2,R)")
    rep = check_count_and_disjoint(r, VerifyConfig(rung_cap=7))
    assert rep.status == "pass" and "through rung 7" in rep.evidence
