"""Command-line surface: run the verification suite, print the summary
tables, and expose reflection-group utilities.

Exit codes: 0 success, 1 at least one failing check or none passing
(every selected check skipped), 2 usage or configuration error.  Default output is byte-identical across runs;
timing columns only appear with --timings.

Every command is a fresh process, so this module loads only what all of
them need: the JSON and CSV renderers import `json` and `csv` themselves,
and each table builds only the records it prints.
"""

from __future__ import annotations

import argparse
import io
import sys
from collections import Counter, namedtuple

from . import registry
from .registry import (
    all_default_records,
    builtin_records,
    default_instances,
    family_defaults,
    find_family,
    instantiate_family,
    joseph_infchar,
    k_display,
    ladder_records,
    one_sided_records,
)
from .render import format_q, format_weight, format_word, parse_q
from .rootsys import UnsupportedCartanType, make_root_system
from .verify import (
    CHECK_NAMES,
    DEFAULT_CONFIG,
    PAPER_COUNTS,
    VerifyConfig,
    infchar_round_trip,
    paper_count,
    run_all,
    run_check,
    suite_status,
)
from .weyl import (
    DEFAULT_BUDGET,
    STRATEGIES,
    longest_element,
    orthogonal_subsystem,
    type_label,
)

class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# verify


def _verify_reports_json(reports, with_timings: bool) -> str:
    import json
    rows = [{"check": r.check, "record": r.record, "status": r.status, "evidence": r.evidence,
             "duration_ms": r.duration_ms if with_timings else 0} for r in reports]
    return json.dumps({"schema": "minrep-verify/1", "overall": suite_status(reports),
                       "reports": rows}, indent=2) + "\n"


def _verify_reports_md(reports, with_timings: bool) -> str:
    cols = ("record", "check", "status", "evidence")
    rows = [(r.record, r.check, r.status, r.evidence.replace("|", "/"))
            for r in reports]
    if with_timings:
        cols += ("duration_ms",)
        rows = [row + (str(r.duration_ms),) for row, r in zip(rows, reports)]
    tally = Counter(r.status for r in reports)
    return (_table_markdown(Table("verify", cols, tuple(rows)))
            + f"\noverall: {suite_status(reports)} ({tally['pass']} pass, "
            f"{tally['skipped']} skipped, {tally['fail']} fail)\n")


def cmd_verify(args) -> int:
    if args.params is not None and args.family is None:
        raise UsageError("--params requires --family")
    if args.params is not None and args.records is not None:
        raise UsageError("--params cannot be combined with --records")
    records = None
    family = args.family
    if args.records is not None:
        try:
            with open(args.records, "r", encoding="utf-8") as fh:
                records = registry.load(fh.read())
        except OSError as exc:
            raise UsageError(f"cannot read {args.records}: {exc.strerror}")
        except UnicodeDecodeError:
            raise UsageError(f"cannot read {args.records}: not UTF-8 text")
        except (registry.RegistryFormatError,
                registry.RegistryValidationError) as exc:
            raise UsageError(str(exc))
    if args.family is not None and args.params is not None:
        try:
            params = tuple(int(p) for p in args.params.split(","))
        except ValueError:
            raise UsageError(f"--params must be comma-separated integers, "
                             f"got {args.params!r}")
        try:
            records = (instantiate_family(args.family, params),)
        except ValueError as exc:
            raise UsageError(str(exc))
        family = None
    try:
        # VerifyConfig refuses out-of-range settings with ValueError
        config = VerifyConfig(strategy=args.strategy, budget=args.budget)
        if family is not None:
            find_family(family)  # an unknown id is refused with the known ones
        reports = run_all(records, record=args.record, family=family,
                          checks=args.check or None, config=config)
    except KeyError as exc:
        pool = records if records is not None else all_default_records()
        raise UsageError(f"{exc.args[0]}; known records: "
                         + ", ".join(r.name for r in pool))
    except ValueError as exc:
        raise UsageError(str(exc))
    render = _verify_reports_json if args.format == "json" else _verify_reports_md
    sys.stdout.write(render(reports, args.timings))
    return 0 if suite_status(reports) == "pass" else 1


# ---------------------------------------------------------------------------
# tables


class Table(namedtuple("Table", ["table_id", "columns", "rows"])):
    # a row's cells are str or list[str]
    __slots__ = ()


def _passes(records, *checks) -> str:
    ok = all(run_check(name, r).status == "pass" for r in records for name in checks)
    return "yes" if ok else "no"


def _family_members(instances, families):
    return [r for fam in families for r in instances if r.family == fam]


def table_numbers() -> Table:
    instances = default_instances()
    by_name = {r.name: r for r in builtin_records()}
    rows = []
    for label, count, families, fixed in PAPER_COUNTS:
        members = (_family_members(instances, families)
                   + [by_name[name] for name in fixed])
        rows.append((label, str(count), _passes(members, "count_and_disjoint")))
    return Table("numbers", ("g", "count", "verified"), tuple(rows))


INFCHAR_SYMBOLIC = (
    ("so(2n+1,C) (n>=3)", "1 (i<=n-3), 1/2, 1/2, 1", "B", range(3, 9)),
    ("sp(n,C) (n>=2)", "1 (i<=n-1), 1/2", "C", range(2, 9)),
    ("so(2n,C) (n>=4)", "1 (i<=n-3), 0, 1, 1", "D", range(4, 9)),
)

INFCHAR_FIXED = ("e6(C)", "e7(C)", "e8(C)", "f4(C)", "g2(C)")


def _pattern_roundtrips(g_label: str) -> bool:
    _, round_trips = infchar_round_trip(g_label, joseph_infchar(g_label))
    return round_trips


def table_infchar() -> Table:
    rows = []
    for label, pattern, family, ranks in INFCHAR_SYMBOLIC:
        ok = all(_pattern_roundtrips(f"{family}{n}") for n in ranks)
        rows.append((label, pattern, "yes" if ok else "no"))
    for name in INFCHAR_FIXED:
        g_label = name.split("(")[0].upper()
        coeffs = joseph_infchar(g_label)
        ok = _pattern_roundtrips(g_label)
        rows.append((name, [format_q(c) for c in coeffs], "yes" if ok else "no"))
    return Table("infchar", ("g_C", "coefficients", "verified"), tuple(rows))


def _hermitian_pool():
    return family_defaults("sp_R", "so_p_2", "so_star") + one_sided_records()


def _line_data_pool():
    return (family_defaults("so_even_even", "so_odd_odd", "so_2n_3")
            + ladder_records())


def table_hermitian() -> Table:
    rows = []
    for r in _hermitian_pool():
        plus, minus = r.p_summands
        ktypes = [f"{m.label}: {format_weight(m.mu0)}" for m in r.modules]
        verified = _passes([r], "p_dimension", "ladder_wellformed",
                           "count_and_disjoint")
        rows.append((r.name, k_display(r.space), format_weight(plus),
                     format_weight(minus), ktypes, str(paper_count(r)),
                     verified))
    return Table("hermitian",
                 ("g", "K", "p_plus", "p_minus", "minimal_k_types", "count",
                  "verified"), tuple(rows))


def table_nonhermitian() -> Table:
    rows = []
    for r in _line_data_pool():
        verified = _passes([r], "p_dimension", "ladder_wellformed",
                           "count_and_disjoint")
        rows.append((r.name, k_display(r.space),
                     format_weight(r.p_summands[0]),
                     format_weight(r.modules[0].mu0), verified))
    return Table("nonhermitian",
                 ("g", "K", "p", "minimal_k_type", "verified"), tuple(rows))


def table_data1() -> Table:
    rows = []
    for r in _line_data_pool():
        verified = _passes([r], "rho", "ladder_wellformed")
        rows.append((r.name, format_weight(r.rho),
                     format_weight(r.modules[0].mu0),
                     format_weight(r.modules[0].beta), verified))
    return Table("data1", ("g", "rho", "mu0", "beta", "verified"), tuple(rows))


def table_data2() -> Table:
    rows = []
    for r in _line_data_pool():
        verified = _passes([r], "xi0", "w0_table", "w0_formula", "same_line")
        rows.append((r.name, format_weight(r.xi0), format_word(r.w0), verified))
    return Table("data2", ("g", "xi0", "w0", "verified"), tuple(rows))


TABLES = {
    "numbers": table_numbers,
    "infchar": table_infchar,
    "hermitian": table_hermitian,
    "nonhermitian": table_nonhermitian,
    "data1": table_data1,
    "data2": table_data2,
}


def _cell_text(cell) -> str:
    if isinstance(cell, list):
        return ", ".join(cell)
    return cell


def _table_markdown(t: Table) -> str:
    lines = ["| " + " | ".join(t.columns) + " |",
             "|" + "|".join("---" for _ in t.columns) + "|"]
    for row in t.rows:
        lines.append("| " + " | ".join(_cell_text(c) for c in row) + " |")
    return "\n".join(lines) + "\n"


def _table_csv(t: Table) -> str:
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(t.columns)
    for row in t.rows:
        writer.writerow([_cell_text(c) for c in row])
    return buf.getvalue()


def _table_json(t: Table) -> str:
    import json
    payload = {
        "schema": "minrep-table/1",
        "table": t.table_id,
        "columns": list(t.columns),
        "rows": [dict(zip(t.columns, row)) for row in t.rows],
    }
    return json.dumps(payload, indent=2) + "\n"


_LATEX_SPECIALS = {"&": r"\&", "%": r"\%", "$": r"\$", "#": r"\#",
                   "_": r"\_", "{": r"\{", "}": r"\}"}


def _latex_escape(text: str) -> str:
    return "".join(_LATEX_SPECIALS.get(ch, ch) for ch in text)


def _table_latex(t: Table) -> str:
    lines = [r"\begin{tabular}{" + "l" * len(t.columns) + "}",
             " & ".join(_latex_escape(c) for c in t.columns) + r" \\",
             r"\hline"]
    for row in t.rows:
        lines.append(" & ".join(_latex_escape(_cell_text(c)) for c in row)
                     + r" \\")
    lines.append(r"\end{tabular}")
    return "\n".join(lines) + "\n"


_TABLE_FORMATS = {
    "markdown": _table_markdown,
    "csv": _table_csv,
    "json": _table_json,
    "latex": _table_latex,
}


def cmd_table(args) -> int:
    table = TABLES[args.table]()
    sys.stdout.write(_TABLE_FORMATS[args.format](table))
    return 0


# ---------------------------------------------------------------------------
# weyl utilities


def cmd_weyl(args) -> int:
    try:
        rs = make_root_system(args.type)
    except UnsupportedCartanType as exc:
        raise UsageError(str(exc))
    if args.action == "order":
        print(rs.order)
        return 0
    if args.action == "longest":
        print(format_word(longest_element(rs)))
        return 0
    # subsystem
    if args.orthogonal_to is None:
        raise UsageError("subsystem requires --orthogonal-to")
    try:
        v = tuple(map(parse_q, args.orthogonal_to.split(",")))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"malformed vector {args.orthogonal_to!r}; expected "
                         "comma-separated rationals like 1,0,-1/2")
    if len(v) != rs.ambient:
        raise UsageError(f"vector has {len(v)} coordinates, {rs.label} "
                         f"lives in {rs.ambient}")
    sub = orthogonal_subsystem(rs, v)
    print(f"{2 * len(sub.positive_images)} roots, type {type_label(sub)}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minrep",
        description="Exact verification of minimal-module ladder data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run checks over the catalog")
    scope = p_verify.add_mutually_exclusive_group()
    scope.add_argument("--record", help="single record by name, e.g. e8_-24")
    scope.add_argument("--family", help="family id, e.g. so_even_even")
    p_verify.add_argument("--params",
                          help="comma-separated family parameters, e.g. 3,2")
    p_verify.add_argument("--check", action="append", choices=CHECK_NAMES,
                          metavar="CHECK",
                          help="restrict to one check (repeatable); one of: "
                          + ", ".join(CHECK_NAMES))
    p_verify.add_argument("--strategy", choices=STRATEGIES,
                          default=DEFAULT_CONFIG.strategy,
                          help="line-preserver search: chamber (closed form, "
                          "self-checked) or an enumeration certificate")
    p_verify.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                          help=f"enumeration budget (default {DEFAULT_BUDGET})")
    p_verify.add_argument("--format", choices=("md", "json"), default="md")
    p_verify.add_argument("--records", metavar="FILE",
                          help="verify records loaded from a registry file")
    p_verify.add_argument("--timings", action="store_true",
                          help="include real durations in the output")
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="print a summary table")
    p_table.add_argument("table", choices=tuple(TABLES))
    p_table.add_argument("--format", choices=tuple(_TABLE_FORMATS),
                         default="markdown")
    p_table.set_defaults(func=cmd_table)

    p_weyl = sub.add_parser("weyl", help="reflection-group utilities")
    p_weyl.add_argument("action", choices=("order", "longest", "subsystem"))
    p_weyl.add_argument("type", help="Cartan type, e.g. F4 or D5")
    p_weyl.add_argument("--orthogonal-to", metavar="VEC",
                        help="comma-separated rational coordinates; a VEC "
                             "that starts with '-' must be written "
                             "--orthogonal-to=VEC")
    p_weyl.set_defaults(func=cmd_weyl)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
