"""Tests of the benchmark harness itself: run with `python3 -m pytest perfbench`.

The harness must never count a wrong answer as a pass: a flipped verdict,
a changed table byte, a timeout and a nonzero exit each raise the failed
operations.  Commands are replaced by small scripts that print a doctored
copy of the reference output, so these tests run in seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import run

CATALOG = run.workload_commands("catalog", 0)
ONE_TABLE = [run.Command(("table", "numbers", "--format", "markdown"),
                         "table_numbers.md", "table")]


def fake_minrep(monkeypatch, tmp_path, stdout: bytes, code: int = 0):
    """Make every command print `stdout` and exit with `code`."""
    out = tmp_path / "stdout"
    out.write_bytes(stdout)
    monkeypatch.setattr(
        run, "ENTRY", f"import sys; sys.stdout.buffer.write(open({str(out)!r}, "
        f"'rb').read()); sys.exit({code})")


def reference(name: str) -> bytes:
    return (run.EXPECTED / name).read_bytes()


def catalog_json(flip=None) -> bytes:
    """The expected catalog as `minrep verify --format json` prints it,
    with the status of the report `flip` = (record, check, status) changed."""
    reports = []
    for record, check, status in json.loads(reference("catalog.json")):
        if status == "budget-skip":
            status = "skipped"
        if flip and (record, check) == flip[:2]:
            status = flip[2]
        reports.append({"check": check, "record": record, "status": status,
                        "evidence": "", "duration_ms": 0})
    return json.dumps({"schema": "minrep-verify/1", "overall": "pass",
                       "reports": reports}).encode()


def run_once(commands, deadline_s=60.0):
    return run.Runner(time.perf_counter() + deadline_s).run(commands, traced=False)


def test_reference_output_passes(monkeypatch, tmp_path):
    fake_minrep(monkeypatch, tmp_path, catalog_json())
    result = run_once(CATALOG)
    assert result.attempted == 612
    assert result.problems == []


def test_flipped_verdict_fails_one_op(monkeypatch, tmp_path):
    fake_minrep(monkeypatch, tmp_path,
                catalog_json(flip=("e8(-24)", "w0_unique", "skipped")))
    result = run_once(CATALOG)
    assert result.attempted == 612
    assert len(result.problems) == 1
    assert "e8(-24) x w0_unique" in result.problems[0]


def test_budget_skip_may_become_pass(monkeypatch, tmp_path):
    fake_minrep(monkeypatch, tmp_path,
                catalog_json(flip=("e8(C)", "w0_unique", "pass")))
    assert run_once(CATALOG).problems == []


def test_missing_report_fails(monkeypatch, tmp_path):
    payload = json.loads(catalog_json())
    payload["reports"].pop()
    fake_minrep(monkeypatch, tmp_path, json.dumps(payload).encode())
    assert len(run_once(CATALOG).problems) == 1


def test_changed_table_byte_fails(monkeypatch, tmp_path):
    good = reference("table_numbers.md")
    fake_minrep(monkeypatch, tmp_path, good)
    assert run_once(ONE_TABLE).problems == []
    bad = bytearray(good)
    bad[len(bad) // 2] ^= 1
    fake_minrep(monkeypatch, tmp_path, bytes(bad))
    result = run_once(ONE_TABLE)
    assert (result.attempted, len(result.problems)) == (1, 1)


@pytest.mark.parametrize("name,fmt,suffix", run.TABLES)
def test_verified_cell_must_be_yes(name, fmt, suffix):
    command = run.Command(("table", name, "--format", fmt),
                          f"table_{name}.{suffix}", "table")
    good = reference(command.reference)
    cells = run.verified_cells(good.decode(), fmt)
    assert cells and set(cells) == {"yes"}
    assert run.check_output(command, good, 0,
                            {command.reference: good}).problems == []
    # output equal to a reference that itself records a failed row is refused
    bad = good.replace(b"yes", b"no", 1)
    assert "no" in run.verified_cells(bad.decode(), fmt)
    assert run.check_output(command, bad, 0,
                            {command.reference: bad}).problems


def test_timeout_fails_every_op(monkeypatch):
    monkeypatch.setattr(run, "ENTRY", "import time; time.sleep(60)")
    t0 = time.perf_counter()
    result = run_once(CATALOG, deadline_s=0.0)   # commands get the 1 s floor
    assert time.perf_counter() - t0 < 10
    assert result.attempted == 612
    assert len(result.problems) == 612
    assert "timed out" in result.problems[0]


def test_nonzero_exit_fails_every_op(monkeypatch, tmp_path):
    fake_minrep(monkeypatch, tmp_path, catalog_json(), code=1)
    result = run_once(CATALOG)
    assert len(result.problems) == 612
    assert "exited 1" in result.problems[0]


def test_rusage_is_per_child():
    touch_64_mib = "b = bytearray(64 << 20); b[::4096] = b'x' * (16 << 10)"
    big = run.run_process([sys.executable, "-c", touch_64_mib], 30)
    small = run.run_process([sys.executable, "-c", "pass"], 30)
    assert big.returncode == small.returncode == 0
    assert big.maxrss_kib > 60 * 1024
    assert small.maxrss_kib < 40 * 1024


def test_layer_totals_self_time_and_nesting():
    ms = 10 ** 6
    spans = [
        ["cli.main", 0, 100 * ms, -1],
        ["verify.run_check", 10 * ms, 60 * ms, 0],
        ["verify.rho", 20 * ms, 50 * ms, 1],
        ["rootsys.dot", 30 * ms, 40 * ms, 2],
        ["rootsys.dot", 32 * ms, 38 * ms, 3],      # recursive: not in .s again
        ["cli.cmd_table", 70 * ms, 90 * ms, 0],
        ["registry.default_instances", 75 * ms, 80 * ms, 5],
    ]
    name, start, end, parent = (list(field) for field in zip(*spans))
    t = run.layer_totals({"name": name, "start_ns": start, "end_ns": end,
                          "parent": parent,
                          "make_root_system": {"hits": 3, "misses": 2}})
    assert t["verify.run_check.calls"] == 1
    assert t["verify.run_check.self_s"] == pytest.approx(0.020)
    assert t["verify.rho.s"] == pytest.approx(0.030)
    assert t["rootsys.dot.calls"] == 2
    assert t["rootsys.dot.s"] == pytest.approx(0.010)
    assert t["rootsys.dot.self_s"] == pytest.approx(0.010)
    # cli.main 100 - run_check 50 - cmd_table 20, plus cmd_table 20 - 5
    assert t["cli.self_s"] == pytest.approx(0.045)
    assert (t["rootsys.make_root_system.hits"],
            t["rootsys.make_root_system.misses"]) == (3, 2)


def test_traced_command_matches_untraced_output(tmp_path):
    args = ["verify", "--record", "g2(2)", "--check", "w0_unique",
            "--check", "w0_formula", "--format", "json"]
    spans_file = tmp_path / "spans.json"
    plain = run.run_process([sys.executable, "-c", run.ENTRY, *args], 60)
    traced = run.run_process([sys.executable, str(run.BENCH / "trace_child.py"),
                              str(spans_file), *args], 60)
    assert plain.returncode == traced.returncode == 0
    assert traced.stdout == plain.stdout
    trace = json.loads(spans_file.read_text())
    names = set(trace["name"])
    assert {"cli.main", "verify.run_check", "verify.w0_unique",
            "verify.w0_formula", "weyl.line_preservers", "weyl.as_element",
            "linalg.matmul"} <= names
    assert not any(name.startswith("render.") for name in names)
    start, end = trace["start_ns"], trace["end_ns"]
    for i, parent in enumerate(trace["parent"]):
        assert start[i] <= end[i]
        if parent >= 0:
            assert parent < i
            assert start[parent] <= start[i] <= end[i] <= end[parent]
    totals = run.layer_totals(trace)
    assert totals["verify.run_check.calls"] == 2
    assert totals["rootsys.make_root_system.misses"] >= 1


def test_seed_orders_the_tables_and_nothing_else():
    tables = run.workload_commands("tables", 7)
    assert tables == run.workload_commands("tables", 7)
    assert sorted(c.args for c in tables) == sorted(
        c.args for c in run.workload_commands("tables", 8))
    assert {c.args[1] for c in tables} == {t[0] for t in run.TABLES}
    assert {c.args[3] for c in tables} == {"markdown", "csv", "json", "latex"}
    orders = {tuple(c.args[1] for c in run.workload_commands("tables", s))
              for s in range(10)}
    assert len(orders) > 1
    for w in ("catalog", "brute"):
        assert run.workload_commands(w, 1) == run.workload_commands(w, 2)


def test_expected_verdict_counts():
    refs = run.load_references()
    for name, counts in (("catalog.json", {"pass": 374, "skipped": 237,
                                           "budget-skip": 1}),
                         ("brute.json", {"pass": 20, "skipped": 27,
                                         "budget-skip": 4})):
        tally = {}
        for status in refs[name].values():
            tally[status] = tally.get(status, 0) + 1
        assert tally == counts


def test_benchmark_json_matches_what_the_harness_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.per_layer_units()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_layer_checks_are_the_programs_checks():
    proc = subprocess.run(
        [sys.executable, "-c",
         "from minrep.verify import CHECK_NAMES; print(*CHECK_NAMES)"],
        env=run.child_env(), capture_output=True, text=True, timeout=60)
    assert tuple(proc.stdout.split()) == run.CHECKS
