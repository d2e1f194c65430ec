"""Command-line behavior: exit codes, output formats, determinism."""

import csv
import io
import json

import pytest

from minrep import registry
from minrep.cli import main


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


def test_verify_output_is_deterministic(capsys, monkeypatch):
    # a 2-worker pool must be allowed on any machine, one CPU included
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    _, first, _ = run(capsys, "verify", "--record", "sp(2,C)",
                      "--format", "json", "--jobs", "2")
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


def test_verify_unknown_record_lists_known_names(capsys):
    code, _, err = run(capsys, "verify", "--record", "nosuch")
    assert code == 2
    assert "no record named" in err
    assert "e8(-24)" in err and "sp(2,R)" in err


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
    code, out, _ = run(capsys, "verify", "--record", "e6(6)",
                       "--check", "w0_unique", "--strategy", "reduced",
                       "--budget", "2")
    assert code == 0
    assert "above budget 2" in out
    assert "skipped" in out


def test_verify_env_budget_and_flag_override(capsys, monkeypatch):
    monkeypatch.setenv("MINREP_BUDGET", "2")
    code, out, _ = run(capsys, "verify", "--record", "e6(6)",
                       "--check", "w0_unique", "--strategy", "reduced")
    assert code == 0 and "above budget 2" in out
    code, out, _ = run(capsys, "verify", "--record", "e6(6)",
                       "--check", "w0_unique", "--strategy", "reduced",
                       "--budget", "10000000")
    assert code == 0 and "pass" in out and "above budget" not in out


def test_verify_default_strategy_is_chamber(capsys):
    # the closed form certifies e8(C) under the benchmark budget, where the
    # reduced strategy would enumerate the 2,903,040-element E7 stabilizer
    code, out, _ = run(capsys, "verify", "--record", "e8(C)",
                       "--check", "w0_unique", "--budget", "1000000")
    assert code == 0
    assert "| e8(C) | w0_unique | pass |" in out
    assert "(strategy chamber)" in out


def test_verify_negative_rungs_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--record", "e6(-14)",
                         "--rungs", "-5")
    assert code == 2
    assert out == ""
    assert "--rungs" in err


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_jobs_below_one_is_usage_error(capsys, jobs):
    code, out, err = run(capsys, "verify", "--record", "g2_2", "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert "--jobs" in err


def test_verify_jobs_above_cpu_count_is_usage_error(capsys, monkeypatch):
    import minrep.verify

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was created")

    monkeypatch.setattr("os.cpu_count", lambda: 1)
    monkeypatch.setattr(minrep.verify, "ProcessPoolExecutor", no_pool)
    code, out, err = run(capsys, "verify", "--record", "g2_2", "--jobs", "2")
    assert code == 2
    assert out == ""
    assert "between 1 and 1" in err


def test_verify_bad_env_budget_is_config_error(capsys, monkeypatch):
    monkeypatch.setenv("MINREP_BUDGET", "lots")
    code, _, err = run(capsys, "verify", "--record", "g2_2")
    assert code == 2
    assert "MINREP_BUDGET" in err


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


def test_verify_records_file_missing_is_config_error(capsys):
    code, _, err = run(capsys, "verify", "--records", "/nonexistent.json")
    assert code == 2
    assert "cannot read" in err


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


# ---------------------------------------------------------------------------
# weyl


def test_weyl_order_f4(capsys):
    code, out, _ = run(capsys, "weyl", "order", "F4")
    assert code == 0
    assert out.strip() == "1152"


def test_weyl_order_large_skips_enumeration(capsys):
    code, out, err = run(capsys, "weyl", "order", "E8")
    assert code == 0
    assert out.strip() == "696729600"
    assert "cross-check skipped" in err


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


def test_weyl_subsystem_malformed_vector(capsys):
    code, _, err = run(capsys, "weyl", "subsystem", "E8",
                       "--orthogonal-to", "1,x")
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
