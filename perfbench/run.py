"""minrep benchmark: time to a certified verdict, as a user of the CLI waits for it.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 42 --trace 0

Workloads `catalog`, `brute` and `tables` run `minrep` commands closed
loop, one caller, each in a fresh interpreter, and check every answer
against `expected/`.  `--trace 0` reports the end-to-end metrics, `--trace
1` the per-layer ones from traced runs (see trace_child.py).  The last line
of stdout is one JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`.  README.md says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected"
WORK = ROOT / ".perfbench_work"

ENTRY = "import sys; from minrep.cli import main; sys.exit(main())"
SETUP = "import minrep; minrep.all_default_records()"
SETUP_SAMPLES = 3
COMMAND_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 165.0        # the whole run must end within 180 s

VERIFY_BUDGET = ("--budget", "1000000")
# (table, format, reference suffix): every renderer runs at least once
TABLES = (
    ("numbers", "markdown", "md"),
    ("infchar", "csv", "csv"),
    ("hermitian", "json", "json"),
    ("nonhermitian", "latex", "tex"),
    ("data1", "markdown", "md"),
    ("data2", "csv", "csv"),
)
WORKLOADS = ("catalog", "brute", "tables")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB",
                    "setup_s": "s"}

# minrep.verify.CHECK_NAMES, copied so that the metric set is the
# benchmark's own and does not follow the program under test
CHECKS = ("rho", "p_dimension", "ladder_wellformed", "xi0", "w0_table",
          "w0_formula", "w0_unique", "same_line", "period",
          "count_and_disjoint", "complex_beta", "infchar_coords")
# layer -> the statistics reported for it
LAYERS = {
    "weyl.line_preservers": ("calls", "s", "self_s"),
    "rootsys.root_system_from_roots": ("calls", "s"),
    "weyl.space_beta_subsystems": ("calls", "s"),
    "linalg.matmul": ("calls", "s"),
    "weyl.as_element": ("calls", "s"),
    "rootsys.make_root_system": ("s",),
    "linalg.solve_combination": ("calls", "s"),
    "registry.builtin_records": ("calls", "s"),
    "registry.default_instances": ("calls", "s"),
    "verify.run_check": ("calls", "self_s"),
    **{f"verify.{check}": ("s",) for check in CHECKS},
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{layer}.{stat}": ("count" if stat == "calls" else "s")
             for layer, stats in LAYERS.items() for stat in stats}
    units["rootsys.make_root_system.hits"] = "count"
    units["rootsys.make_root_system.misses"] = "count"
    units["cli.self_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# commands and their checks


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]        # arguments to `minrep`
    reference: str               # file in expected/
    output: str                  # "verify-json" | "verify-md" | "table"


def workload_commands(workload: str, seed: int) -> list[Command]:
    if workload == "catalog":
        return [Command(("verify", "--format", "json") + VERIFY_BUDGET,
                        "catalog.json", "verify-json")]
    if workload == "brute":
        return [Command(("verify", "--strategy", "brute", "--check",
                         "w0_unique") + VERIFY_BUDGET,
                        "brute.json", "verify-md")]
    if workload == "tables":
        commands = [Command(("table", name, "--format", fmt),
                            f"table_{name}.{suffix}", "table")
                    for name, fmt, suffix in TABLES]
        random.Random(seed).shuffle(commands)
        return commands
    raise ValueError(f"unknown workload {workload!r}")


def parse_verdicts(text: str, output: str) -> dict[tuple[str, str], str]:
    """(record, check) -> status from `minrep verify` output."""
    if output == "verify-json":
        return {(r["record"], r["check"]): r["status"]
                for r in json.loads(text)["reports"]}
    out = {}
    for line in text.splitlines()[2:]:
        if line.startswith("| "):
            record, check, status, _ = line[2:].split(" | ", 3)
            out[(record, check)] = status
    return out


def verdict_failures(actual: dict, expected: dict) -> tuple[int, list[str]]:
    """Operations attempted and a line for each that failed.

    An expected `budget-skip` may be `skipped` or `pass`; every other
    verdict must match exactly, and a report missing from either side fails.
    """
    problems = []
    for key in sorted(expected.keys() | actual.keys()):
        want, got = expected.get(key), actual.get(key)
        ok = got == want or (want == "budget-skip"
                             and got in ("skipped", "pass"))
        if not ok:
            problems.append(f"{key[0]} x {key[1]}: expected {want}, got {got}")
    return len(expected.keys() | actual.keys()), problems


def verified_cells(text: str, fmt: str) -> list[str]:
    """The last column (`verified` in every table) of each data row."""
    if fmt == "json":
        return [row["verified"] for row in json.loads(text)["rows"]]
    lines = text.splitlines()
    if fmt == "markdown":
        return [line.rstrip(" |").rsplit(" | ", 1)[-1] for line in lines[2:]]
    if fmt == "csv":
        return [line.rsplit(",", 1)[-1] for line in lines[1:]]
    # latex: header row, \hline, rows, \end{tabular}
    return [line.removesuffix(r" \\").rsplit(" & ", 1)[-1]
            for line in lines[3:-1]]


@dataclass
class Outcome:
    """Operations attempted and failed by one command, with reasons."""
    attempted: int
    problems: list[str]


def check_output(command: Command, stdout: bytes, returncode: int | None,
                 references: dict) -> Outcome:
    reference = references[command.reference]
    if command.output == "table":
        fmt = command.args[3]
        problems = []
        if returncode != 0:
            problems.append(_exit_text(command, returncode))
        elif stdout != reference:
            problems.append(f"minrep {' '.join(command.args)}: stdout differs "
                            "from expected/" + command.reference)
        elif any(cell != "yes" for cell in verified_cells(stdout.decode(), fmt)):
            problems.append(f"minrep {' '.join(command.args)}: a verified "
                            "cell is not yes")
        return Outcome(1, problems)
    if returncode != 0:
        return Outcome(len(reference), [_exit_text(command, returncode)]
                       * len(reference))
    try:
        actual = parse_verdicts(stdout.decode(), command.output)
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        return Outcome(len(reference), [f"unparsable verify output: {exc}"]
                       * len(reference))
    return Outcome(*verdict_failures(actual, reference))


def _exit_text(command: Command, returncode: int | None) -> str:
    return f"minrep {' '.join(command.args)}: {_exit_word(returncode)}"


def _exit_word(returncode: int | None) -> str:
    return "timed out" if returncode is None else f"exited {returncode}"


def load_references() -> dict:
    refs = {}
    for path in EXPECTED.iterdir():
        if path.name.startswith("table_"):
            refs[path.name] = path.read_bytes()
        else:
            refs[path.name] = {(rec, chk): status for rec, chk, status
                               in json.loads(path.read_text())}
    return refs


# ---------------------------------------------------------------------------
# running a process


@dataclass
class Process:
    stdout: bytes
    returncode: int | None       # None: killed at the timeout
    wall_s: float
    cpu_s: float
    maxrss_kib: int


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "MINREP_BUDGET"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_process(argv: list[str], timeout: float) -> Process:
    """Run argv to completion or timeout, with its own CPU and peak RSS.

    CPU and RSS come from `os.wait4` on this child alone; `RUSAGE_CHILDREN`
    would report the maximum over every earlier child as well.  The child
    leads its own process group, so a timeout kills anything it started.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, start_new_session=True)
    chunks = []
    reader = threading.Thread(target=lambda: chunks.append(proc.stdout.read()))
    reader.start()
    lock = threading.Lock()
    exited = False
    timed_out = False

    def kill():
        nonlocal timed_out
        with lock:
            if not exited:
                timed_out = True
                os.killpg(proc.pid, signal.SIGKILL)

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        # wait without reaping, so the pid cannot be reused before the
        # timer is disarmed; then reap and take the child's own rusage
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - t0
    except BaseException:
        kill()
        raise
    finally:
        with lock:
            exited = True
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    reader.join()
    proc.stdout.close()
    return Process(chunks[0], None if timed_out else proc.returncode, wall,
                   usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


# ---------------------------------------------------------------------------
# workload runs


@dataclass
class WorkloadRun:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    layers: Counter = field(default_factory=Counter)


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.references = load_references()

    def timeout(self) -> float:
        return max(1.0, min(COMMAND_TIMEOUT_S,
                            self.deadline - time.perf_counter()))

    def run(self, commands: list[Command], traced: bool) -> WorkloadRun:
        result = WorkloadRun()
        for i, command in enumerate(commands):
            spans = WORK / f"spans_{i}.json"
            if traced:
                spans.unlink(missing_ok=True)
                argv = [sys.executable, str(BENCH / "trace_child.py"),
                        str(spans), *command.args]
            else:
                argv = [sys.executable, "-c", ENTRY, *command.args]
            proc = run_process(argv, self.timeout())
            outcome = check_output(command, proc.stdout, proc.returncode,
                                   self.references)
            result.wall_s += proc.wall_s
            result.cpu_s += proc.cpu_s
            result.peak_rss_mb = max(result.peak_rss_mb,
                                     proc.maxrss_kib / 1024)
            result.attempted += outcome.attempted
            result.problems += outcome.problems
            if traced and proc.returncode == 0:
                result.layers.update(layer_totals(json.loads(spans.read_text())))
        return result


def layer_totals(trace: dict) -> Counter:
    """Per-layer `calls`, `s` and `self_s` of one traced command.

    `s` sums the spans not nested in a span of the same name, so recursion
    is not counted twice; `self_s` subtracts each span's direct children.
    `cli.self_s` is the self time of every `cli` span: `cli.main` minus the
    wrapped functions of the other layers that it calls.
    """
    names, parents = trace["name"], trace["parent"]
    out = Counter()
    for i, (name, parent) in enumerate(zip(names, parents)):
        took = (trace["end_ns"][i] - trace["start_ns"][i]) / 1e9
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += took
        if parent >= 0:
            out[f"{names[parent]}.self_s"] -= took
        ancestor = parent
        while ancestor >= 0 and names[ancestor] != name:
            ancestor = parents[ancestor]
        if ancestor < 0:
            out[f"{name}.s"] += took
    out["cli.self_s"] = sum(v for k, v in out.items()
                            if k.startswith("cli.") and k.endswith(".self_s"))
    out["rootsys.make_root_system.hits"] += trace["make_root_system"]["hits"]
    out["rootsys.make_root_system.misses"] += trace["make_root_system"]["misses"]
    return out


def measure(runner: Runner, commands: list[Command], seconds: float,
            trace: bool):
    """Workload runs (and, with `trace`, traced ones) for `seconds`.

    Steps repeat until the next one would end after `seconds`.  Untraced,
    the first steps each begin with a set-up sample, so that a burst of
    load on the host does not shift all of them.
    """
    plain: list[WorkloadRun] = []
    traced: list[WorkloadRun] = []
    setup: list[float] = []
    problems: list[str] = []

    def sample_setup():
        proc = run_process([sys.executable, "-c", SETUP], runner.timeout())
        setup.append(proc.wall_s)
        if proc.returncode != 0:
            problems.append(f"setup {_exit_word(proc.returncode)}")

    t0 = time.perf_counter()
    while True:
        step = time.perf_counter()
        if not trace and len(setup) < SETUP_SAMPLES:
            sample_setup()
        plain.append(runner.run(commands, traced=False))
        if trace:
            traced.append(runner.run(commands, traced=True))
        now = time.perf_counter()
        took = now - step
        if now - t0 + took > seconds or now + took > runner.deadline:
            break
    while not trace and len(setup) < SETUP_SAMPLES:
        sample_setup()
    return plain, traced, setup, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # let a terminated run kill and reap its command (see run_process)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "minrep" / "__init__.py").is_file():
        print(f"error: no minrep sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    start = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    # the build: byte-compile once, so no timed interpreter compiles
    if not compileall.compile_dir(str(SRC / "minrep"), quiet=1):
        print("error: minrep sources do not compile", file=sys.stderr)
        return 2
    runner = Runner(start + RUN_DEADLINE_S)
    commands = workload_commands(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}, commands:")
    for command in commands:
        print("  minrep " + " ".join(command.args))

    plain, traced, setup, problems = measure(runner, commands, args.seconds,
                                             bool(args.trace))
    attempted = len(problems)        # a failed set-up counts as one operation
    for r in plain + traced:
        attempted += r.attempted
        problems += r.problems

    if args.trace:
        metrics = {}
        for name, unit in per_layer_units().items():
            if name == "trace.wall_s":
                value = statistics.median(r.wall_s for r in traced)
            elif name == "trace.overhead_s":
                value = statistics.median(t.wall_s - p.wall_s
                                          for p, t in zip(plain, traced))
            else:
                value = statistics.median(r.layers[name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
        print(f"{len(traced)} traced workload runs; tracing overhead "
              f"{metrics['trace.overhead_s']['value']:.4f} s per run")
    else:
        values = {
            "wall_s": statistics.median(r.wall_s for r in plain),
            "cpu_s": statistics.median(r.cpu_s for r in plain),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
            "setup_s": statistics.median(setup),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
        print("wall_s per workload run: "
              + ", ".join(f"{r.wall_s:.3f}" for r in plain)
              + "; setup_s samples: " + ", ".join(f"{t:.3f}" for t in setup))
        print(f"{len(plain)} workload runs; medians: "
              + ", ".join(f"{k} = {v:.4f} {END_TO_END_UNITS[k]}"
                          for k, v in values.items())
              + f"; ops = {attempted} count, ops_failed = {len(problems)} count")
    for line in list(dict.fromkeys(problems))[:20]:
        print("FAILED " + line, file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(problems), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
