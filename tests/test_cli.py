"""Command-line behavior: exit codes, output formats, determinism."""

import csv
import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from minrep import cli, registry
from minrep.cli import main
from minrep.verify import CHECK_NAMES, CheckReport, run_check, suite_status


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# verify


def test_verify_single_record_passes(capsys):
    code, out, err = run(capsys, "verify", "--record", "g2_2")
    assert code == 0
    assert "| g2(2) | rho | pass |" in out
    assert out.rstrip().endswith("overall: pass (11 pass, 1 skipped, 0 fail)")


def test_verify_record_name_is_normalized(capsys):
    code, out, _ = run(capsys, "verify", "--record", "G2(2)", "--check", "rho")
    assert code == 0
    assert "g2(2)" in out


def test_verify_json_shape(capsys):
    code, out, _ = run(capsys, "verify", "--record", "so(4,3)",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "minrep-verify/1"
    assert doc["overall"] == "pass"
    assert len(doc["reports"]) == 12
    assert all(r["duration_ms"] == 0 for r in doc["reports"])
    assert {r["check"] for r in doc["reports"]} == set(
        ["rho", "p_dimension", "ladder_wellformed", "xi0", "w0_table",
         "w0_formula", "w0_unique", "same_line", "period",
         "count_and_disjoint", "complex_beta", "infchar_coords"])


@given(st.lists(st.builds(CheckReport, st.text(), st.text(),
                          st.sampled_from(["pass", "fail", "skipped"]), st.text(),
                          st.integers(0, 10 ** 9)), max_size=4),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_verify_json_is_the_indented_json_dump(reports, with_timings):
    # the report is laid out by hand; its bytes are json.dumps(indent=2)'s,
    # escapes and the empty list included
    payload = {
        "schema": "minrep-verify/1",
        "overall": suite_status(reports),
        "reports": [{"check": r.check, "record": r.record, "status": r.status,
                     "evidence": r.evidence,
                     "duration_ms": r.duration_ms if with_timings else 0}
                    for r in reports],
    }
    assert cli._verify_reports_json(reports, with_timings) == json.dumps(payload, indent=2) + "\n"


def test_verify_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "--record", "sp(2,C)",
                      "--format", "json")
    _, second, _ = run(capsys, "verify", "--record", "sp(2,C)",
                       "--format", "json")
    assert first == second


def test_verify_timings_flag_adds_column(capsys):
    _, out, _ = run(capsys, "verify", "--record", "g2_2", "--timings")
    assert "duration_ms" in out.splitlines()[0]
    _, plain, _ = run(capsys, "verify", "--record", "g2_2")
    assert "duration_ms" not in plain.splitlines()[0]


def test_verify_family_filter(capsys):
    code, out, _ = run(capsys, "verify", "--family", "sp_C",
                       "--check", "period")
    assert code == 0
    assert "sp(2,C)" in out and "sp(3,C)" in out
    assert "sp(2,R)" not in out


def test_verify_family_with_params_instantiates(capsys):
    code, out, _ = run(capsys, "verify", "--family", "so_2n_3",
                       "--params", "4", "--check", "rho")
    assert code == 0
    assert "so(8,3)" in out


def test_verify_params_without_family_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--params", "3")
    assert code == 2
    assert "--params requires --family" in err


def test_verify_bad_params_report_constraint(capsys):
    code, _, err = run(capsys, "verify", "--family", "so_2n_3", "--params", "1")
    assert code == 2
    assert "n >= 2" in err


@pytest.mark.parametrize("params", ["2.5", "four", "4,", ""])
def test_verify_params_that_are_not_integers_are_usage_errors(capsys, params):
    code, out, err = run(capsys, "verify", "--family", "so_2n_3", "--params", params)
    assert code == 2
    assert out == ""
    assert err == f"error: --params must be comma-separated integers, got {params!r}\n"


def test_verify_unknown_record_lists_known_names(capsys):
    code, _, err = run(capsys, "verify", "--record", "nosuch")
    assert code == 2
    assert "no record named" in err
    assert "e8(-24)" in err and "sp(2,R)" in err


def test_verify_repeated_check_runs_once(capsys):
    code, out, _ = run(capsys, "verify", "--check", "rho", "--check", "rho",
                       "--record", "g2(2)")
    assert code == 0
    assert out.count("| g2(2) | rho | pass |") == 1
    assert out.rstrip().endswith("overall: pass (1 pass, 0 skipped, 0 fail)")


def test_verify_unknown_family_lists_known_families(capsys, tmp_path):
    code, out, err = run(capsys, "verify", "--family", "nosuch")
    assert code == 2
    assert out == ""
    assert err == ("error: unknown family 'nosuch'; known: "
                   + ", ".join(sorted(registry.FAMILIES)) + "\n")
    # a known family without records in a --records file names the records
    path = tmp_path / "g2.json"
    path.write_text(registry.save([registry.find_record("g2(2)")]), encoding="utf-8")
    code, _, err = run(capsys, "verify", "--records", str(path), "--family", "sp_R")
    assert code == 2
    assert err == "error: no records in family 'sp_R'; known records: g2(2)\n"


def test_verify_unknown_check_rejected_by_parser(capsys):
    code, _, err = run(capsys, "verify", "--check", "bogus")
    assert code == 2
    assert "invalid choice" in err


def test_verify_record_and_family_are_exclusive(capsys):
    code, _, err = run(capsys, "verify", "--record", "g2_2",
                       "--family", "sp_R")
    assert code == 2
    assert "not allowed with" in err


def test_verify_budget_skip_still_exits_zero(capsys):
    # next to a check that passes; a selection with no pass does not pass
    # brute gates |W_K| = |W(C4)| = 384
    code, out, _ = run(capsys, "verify", "--record", "e6(6)",
                       "--check", "w0_unique", "--check", "rho",
                       "--strategy", "brute", "--budget", "2")
    assert code == 0
    assert "above budget 2" in out
    assert out.rstrip().endswith("overall: pass (1 pass, 1 skipped, 0 fail)")


@pytest.mark.parametrize("fmt", ["md", "json"])
def test_verify_selection_without_a_pass_does_not_pass(capsys, fmt):
    # the compact e6 has no modules, so both checks skip: nothing certified
    code, out, _ = run(capsys, "verify", "--record", "e6", "--check",
                       "w0_unique", "--check", "xi0", "--format", fmt)
    assert code == 1
    if fmt == "md":
        assert out.rstrip().endswith("overall: skipped (0 pass, 2 skipped, 0 fail)")
    else:
        doc = json.loads(out)
        assert doc["overall"] == "skipped"
        assert [r["status"] for r in doc["reports"]] == ["skipped", "skipped"]


def test_verify_budget_comes_from_the_flag_alone(capsys, monkeypatch):
    # no environment variable sets the budget; the default is the constant
    monkeypatch.setenv("MINREP_BUDGET", "1")
    code, out, _ = run(capsys, "verify", "--record", "e6(6)",
                       "--check", "w0_unique", "--strategy", "brute")
    assert code == 0
    assert "| e6(6) | w0_unique | pass |" in out


def test_verify_default_strategy_is_chamber(capsys):
    # the closed form certifies e8(C) under the benchmark budget, where
    # brute walks the 2,903,040-element E7 stabilizer and gates on |W(E8)|
    code, out, _ = run(capsys, "verify", "--record", "e8(C)",
                       "--check", "w0_unique", "--budget", "1000000")
    assert code == 0
    assert "| e8(C) | w0_unique | pass |" in out
    assert "(strategy chamber)" in out


def test_verify_refuses_an_unknown_strategy(capsys):
    code, out, err = run(capsys, "verify", "--strategy", "reduced")
    assert (code, out) == (2, "")
    assert "invalid choice" in err
    assert "chamber" in err and "brute" in err


@pytest.mark.parametrize("jobs", ["2", "0", "-1"])
def test_verify_jobs_is_usage_error(capsys, jobs):
    # verify runs its checks in one process and takes no --jobs
    code, out, err = run(capsys, "verify", "--record", "g2_2", "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --jobs" in err


def test_verify_records_file_round_trip(capsys, tmp_path):
    recs = [r for r in registry.all_default_records()
            if r.name in ("g2(2)", "so(4,3)")]
    path = tmp_path / "regs.json"
    path.write_text(registry.save(recs), encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--records", str(path),
                       "--check", "rho")
    assert code == 0
    assert "g2(2)" in out and "so(4,3)" in out


def test_verify_records_file_with_bad_data_exits_one(capsys, tmp_path):
    recs = [r for r in registry.all_default_records() if r.name == "g2(2)"]
    doc = json.loads(registry.save(recs))
    doc["records"][0]["xi0"]["factors"][0] = ["1", "0"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--records", str(path),
                       "--check", "xi0")
    assert code == 1
    assert "| fail |" in out
    assert "overall: fail" in out


def test_verify_records_file_with_inexact_data_is_config_error(capsys, tmp_path):
    doc = json.loads(registry.save([registry.find_record("g2(2)")]))
    doc["records"][0]["rho"]["factors"][0][0] = True
    path = tmp_path / "inexact.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--records", str(path))
    assert code == 2
    assert out == ""
    assert "record g2(2): rational True must be a string" in err


def test_verify_records_file_without_records_is_config_error(capsys, tmp_path):
    # an empty selection used to print "overall: pass" and exit 0
    path = tmp_path / "empty.json"
    path.write_text(registry.save([]), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--records", str(path))
    assert code == 2
    assert out == ""
    assert "no records to verify" in err


def test_verify_records_file_missing_is_config_error(capsys):
    code, _, err = run(capsys, "verify", "--records", "/nonexistent.json")
    assert code == 2
    assert "cannot read" in err


def test_verify_records_file_with_degenerate_beta_or_k_fails_every_report(capsys, tmp_path):
    # two hand-written records that load: toy(1,1) is so*(8) with beta on
    # A3's trace direction, so it pairs to zero with every simple coroot;
    # toy(2,2) is g2(2) claiming the complex form G2 x G2 on a two-factor K.
    # Each check reports on them, and none raises.
    doc = json.loads(registry.save([registry.find_record("so*(8)"),
                                    registry.find_record("g2(2)")]))
    hermitian, complex_ = doc["records"]
    hermitian.update(name="toy(1,1)", family=None, params=[])
    for m, charge in zip(hermitian["modules"], ("1", "-1")):
        m["beta"] = {"factors": [["1", "1", "1", "1"]], "center": [charge]}
    hermitian["p_summands"] = [m["beta"] for m in hermitian["modules"]]
    complex_.update(name="toy(2,2)", g_complex=["G2", "G2"],
                    infchar=complex_["infchar"] * 2)
    text = json.dumps(doc)
    records = registry.load(text)
    reports = {(r.name, name): run_check(name, r) for r in records for name in CHECK_NAMES}
    assert len(reports) == 24
    assert reports["toy(1,1)", "period"].status == "fail"
    assert ("beta pairs to zero with every simple coroot"
            in reports["toy(1,1)", "period"].evidence)
    assert reports["toy(2,2)", "complex_beta"].status == "fail"
    assert ("a complex form needs K to be one factor"
            in reports["toy(2,2)", "complex_beta"].evidence)
    path = tmp_path / "toys.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "verify", "--records", str(path))
    assert code == 1
    assert err == ""
    for (record, name), rep in reports.items():
        assert f"| {record} | {name} | {rep.status} | {rep.evidence} |" in out
    assert "overall: fail" in out


def _k_with_a_center(rec):
    rec.update(name="toy(C2+center)", family=None, center_dim=1)
    for w in [*rec["p_summands"], rec["rho"], rec["xi0"],
              *(m[k] for m in rec["modules"] for k in ("mu0", "beta"))]:
        w["center"] = ["0"]


@pytest.mark.parametrize("name,edit,error,evidence", [
    ("g2(2)", lambda rec: rec.update(rho=None),
     "record g2(2): records with modules need rho", None),
    # K = B2 x B1, and (-1, 0) pairs to -1 with B2's short simple coroot
    ("so(5,3)", lambda rec: rec["p_summands"].append({"factors": [["-1", "0"], ["0"]]}),
     "record so(5,3): p-summand 1 is not dominant integral", None),
    # on the reducible D2, whose roots e1 -+ e2 give the letters of w0
    ("sp(2,C)", lambda rec: rec.update(name="toy(D2)", family=None, k_factors=["D2"],
                                       w0=[[0, ["1", "-1"]], [0, ["1", "1"]]]),
     None, "K factor D2 is reducible; a complex form needs K to be simple"),
    ("sp(2,C)", _k_with_a_center,
     None, "K has a center of dimension 1; a complex form's K has none"),
], ids=["rho-null", "p-summand-not-dominant", "reducible-k", "k-with-a-center"])
def test_verify_records_file_with_bad_input_refuses_or_fails(
        capsys, tmp_path, name, edit, error, evidence):
    # each of these files used to end in a traceback or abort the run
    doc = json.loads(registry.save([registry.find_record(name)]))
    edit(doc["records"][0])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--records", str(path))
    if error is not None:
        assert (code, out, err) == (2, "", f"error: {error}\n")
    else:
        assert (code, err) == (1, "")
        assert f"| complex_beta | fail | {evidence} |" in out


def test_verify_records_file_with_unsupported_type_is_config_error(capsys, tmp_path):
    doc = json.loads(registry.save([registry.find_record("g2(2)")]))
    doc["records"][0]["g_complex"] = ["Z3"]
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--records", str(path))
    assert code == 2
    assert out == ""
    assert "record g2(2): g_complex unsupported type 'Z3'" in err


@pytest.mark.parametrize("name,edit", [
    ("so(5,2)", {"family": "so_even_even"}),
    ("e6(-14)", {"name": "e6(6)"}),
])
def test_verify_records_file_claiming_another_class_is_config_error(
        capsys, tmp_path, name, edit):
    # with one module each, these passed every check as the class they claim
    doc = json.loads(registry.save([registry.find_record(name)]))
    doc["records"][0]["modules"] = doc["records"][0]["modules"][:1]
    doc["records"][0].update(edit)
    path = tmp_path / "claim.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--records", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: record {doc['records'][0]['name']}: ")


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "so_compact", "--params", "200"),
    ("weyl", "longest", "D120"),
])
def test_ranks_above_the_cap_are_config_errors(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "rank above 16" in err


def test_verify_records_file_with_a_weight_of_the_wrong_shape_is_config_error(
        capsys, tmp_path):
    # a one-block p-summand on g2(2)'s two-factor K used to end in a
    # ValueError traceback and exit 1
    doc = json.loads(registry.save([registry.find_record("g2(2)")]))
    doc["records"][0]["p_summands"].append({"factors": [["1", "-1"]], "center": []})
    path = tmp_path / "oneblock.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--records", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: record g2(2): weight has 1 blocks, space has 2\n"


@pytest.mark.parametrize("edit,error", [
    (lambda rec: rec["rho"]["factors"][0].pop(), "block (1) has wrong length for A1d"),
    (lambda rec: rec["w0"][0].__setitem__(1, ["1", "1", "1"]),
     "letter vector (1,1,1) is not on a root line of factor 0"),
], ids=["weight-block", "w0-letter"])
def test_verify_records_file_refusal_prints_coordinates_plainly(capsys, tmp_path, edit, error):
    # rootsys.conform and weyl.word used to print Fraction reprs here
    doc = json.loads(registry.save([registry.find_record("g2(2)")]))
    edit(doc["records"][0])
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--records", str(path))
    assert (code, out, err) == (2, "", f"error: record g2(2): {error}\n")
    assert "Fraction(" not in err


def test_verify_records_file_not_utf8_is_config_error(capsys, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "verify", "--records", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot read {path}: not UTF-8 text\n"


def test_verify_records_file_malformed_is_config_error(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "verify", "--records", str(path))
    assert code == 2
    assert "parse error" in err


# ---------------------------------------------------------------------------
# tables


def test_table_numbers_rows(capsys):
    code, out, _ = run(capsys, "table", "numbers")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("| s")]
    assert len(lines) == 6
    counts = [l.split("|")[2].strip() for l in out.splitlines()[2:8]]
    assert counts == ["4", "2", "1", "0", "2", "1"]
    assert all("| yes |" in l for l in out.splitlines()[2:8])


def test_table_numbers_csv(capsys):
    code, out, _ = run(capsys, "table", "numbers", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["g", "count", "verified"]
    assert rows[1][0] == "sp(n,R) (n>=2)" and rows[1][1] == "4"


def test_table_infchar_g2_coefficients(capsys):
    code, out, _ = run(capsys, "table", "infchar", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "minrep-table/1"
    by_g = {row["g_C"]: row for row in doc["rows"]}
    assert by_g["g2(C)"]["coefficients"] == ["1", "1/3"]
    assert by_g["f4(C)"]["coefficients"] == ["1/2", "1/2", "1", "1"]
    assert by_g["e7(C)"]["coefficients"] == ["1", "1", "1", "0", "1", "1", "1"]
    assert all(row["verified"] == "yes" for row in doc["rows"])


def test_table_hermitian_has_weil_ladders(capsys):
    code, out, _ = run(capsys, "table", "hermitian")
    assert code == 0
    assert "sp(2,R)" in out and "weil-even: (0; 1/2)" in out
    assert "e7(-25)" in out


def test_table_data1_exact_cells(capsys):
    code, out, _ = run(capsys, "table", "data1")
    assert code == 0
    assert ("| g2(2) | ((1,-1),(1,-1)) | ((2,-2),0) | ((3,-3),(1,-1)) | yes |"
            in out)
    assert "| e8(8) | (7,6,5,4,3,2,1,0) | 0 | " in out


def test_table_data2_exact_cells(capsys):
    code, out, _ = run(capsys, "table", "data2")
    assert code == 0
    assert "| e6(6) | (3/2,1/2,-1/2,-3/2) | s(e1+e4)s(e2+e3) | yes |" in out
    assert "s(f1-f2)" in out


def test_table_latex_render(capsys):
    code, out, _ = run(capsys, "table", "numbers", "--format", "latex")
    assert code == 0
    assert out.startswith("\\begin{tabular}{lll}")
    assert out.rstrip().endswith("\\end{tabular}")
    assert "sp(n,R)" in out


def test_table_unknown_id_is_usage_error(capsys):
    code, _, err = run(capsys, "table", "wrong")
    assert code == 2
    assert "invalid choice" in err


def test_table_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "table", "data2")
    _, second, _ = run(capsys, "table", "data2")
    assert first == second


@pytest.mark.parametrize("pool,families,fixed", [
    (cli._hermitian_pool, ("sp_R", "so_p_2", "so_star"), lambda r: r.hermitian),
    (cli._line_data_pool, ("so_even_even", "so_odd_odd", "so_2n_3"),
     lambda r: r.modules and not r.hermitian and len(r.g_complex) == 1),
], ids=["hermitian", "line_data"])
def test_table_pools_are_the_catalog_filtered(pool, families, fixed):
    # the records a table builds for itself are, in order, those it would
    # pick out of the whole catalog: family defaults family by family, then
    # the built-in records the predicate keeps
    catalog = registry.all_default_records()
    expected = ([r for fam in families for r in catalog if r.family == fam]
                + [r for r in catalog if r.family is None and fixed(r)])
    assert pool() == tuple(expected)


@pytest.mark.parametrize("table", ["infchar", "hermitian", "nonhermitian",
                                   "data1", "data2"])
def test_tables_other_than_numbers_build_no_whole_catalog(table, monkeypatch,
                                                           capsys):
    def refuse():
        raise AssertionError("the whole catalog was built")

    for name in ("builtin_records", "default_instances", "all_default_records"):
        monkeypatch.setattr(cli, name, refuse)
        monkeypatch.setattr(registry, name, refuse)
    code, out, _ = run(capsys, "table", table)
    assert code == 0 and "| yes |" in out


# ---------------------------------------------------------------------------
# weyl


def test_weyl_order_f4(capsys):
    code, out, _ = run(capsys, "weyl", "order", "F4")
    assert code == 0
    assert out.strip() == "1152"


def test_weyl_order_large_skips_enumeration(capsys):
    # orbit-stabilizer counts E8 without walking its group, and says nothing more
    code, out, err = run(capsys, "weyl", "order", "E8")
    assert code == 0
    assert out == "696729600\n"
    assert err == ""


@pytest.mark.parametrize("budget", ["5", "0", "-4"])
def test_weyl_budget_is_an_unrecognized_argument(capsys, budget):
    # no weyl action enumerates under a budget; --budget is verify's alone
    code, out, err = run(capsys, "weyl", "order", "A2", "--budget", budget)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --budget" in err


def test_weyl_longest_c4_negates_everything(capsys):
    code, out, _ = run(capsys, "weyl", "longest", "C4")
    assert code == 0
    word = out.strip()
    assert word.count("s(") == 16
    from minrep.rootsys import KSpace, make_root_system, weight
    from minrep.weyl import apply, longest_element
    space = KSpace((make_root_system("C4"),), 0)
    probe = weight(space, (3, 1, 4, 1))
    image = apply(space, longest_element(space.factors[0]), probe)
    assert image.factors[0] == (-3, -1, -4, -1)


def test_weyl_subsystem_e8_example(capsys):
    code, out, _ = run(capsys, "weyl", "subsystem", "E8",
                       "--orthogonal-to", "0,0,0,0,0,0,1,1")
    assert code == 0
    assert out.strip() == "126 roots, type E7"


def test_weyl_subsystem_accepts_rationals(capsys):
    code, out, _ = run(capsys, "weyl", "subsystem", "G2",
                       "--orthogonal-to", "1/2,1/2,-1")
    assert code == 0
    assert out.strip() == "2 roots, type A1"


def test_weyl_subsystem_can_be_empty(capsys):
    # rho is regular, so no root is orthogonal to it
    code, out, _ = run(capsys, "weyl", "subsystem", "G2",
                       "--orthogonal-to=-1,-2,3")
    assert code == 0
    assert out.strip() == "0 roots, type empty"


def test_weyl_help_says_a_negative_vector_needs_the_equals_form(capsys):
    # argparse reads "-1,0,1" after a space as an option, not as the value
    code, out, _ = run(capsys, "weyl", "--help")
    assert code == 0
    assert "starts with '-' must be written --orthogonal-to=VEC" in " ".join(out.split())
    code, _, err = run(capsys, "weyl", "subsystem", "G2", "--orthogonal-to", "-1,0,1")
    assert code == 2
    assert "expected one argument" in err
    code, out, _ = run(capsys, "weyl", "subsystem", "G2", "--orthogonal-to=-1,0,1")
    assert code == 0
    assert out.strip() == "2 roots, type A1"


def test_weyl_subsystem_malformed_vector(capsys):
    code, _, err = run(capsys, "weyl", "subsystem", "E8",
                       "--orthogonal-to", "1,x")
    assert code == 2
    assert "malformed vector" in err


@pytest.mark.parametrize("part", ["1e999999999", "0.5", "1_0"])
def test_weyl_subsystem_refuses_a_coordinate_that_is_not_p_or_p_over_q(capsys, part):
    start = time.perf_counter()
    code, _, err = run(capsys, "weyl", "subsystem", "G2", "--orthogonal-to", f"1,{part},0")
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert "malformed vector" in err


def test_weyl_subsystem_wrong_length(capsys):
    code, _, err = run(capsys, "weyl", "subsystem", "E8",
                       "--orthogonal-to", "1,0")
    assert code == 2
    assert "coordinates" in err


def test_weyl_subsystem_requires_vector(capsys):
    code, _, err = run(capsys, "weyl", "subsystem", "E8")
    assert code == 2
    assert "--orthogonal-to" in err


def test_weyl_unknown_type(capsys):
    code, _, err = run(capsys, "weyl", "order", "ZZ9")
    assert code == 2
    assert "unsupported type" in err


def test_no_command_is_usage_error(capsys):
    code, _, err = run(capsys, "")
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "verify" in out and "table" in out and "weyl" in out
