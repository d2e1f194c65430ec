#!/usr/bin/env python3
"""Run every check on every catalog record and print a summary.

Writes the full report table to stdout (markdown) and a one-line
tally per check to stderr, so `python3 scripts/run_full_verification.py
> report.md` leaves a readable terminal trace.  Exits 1 if anything
fails.
"""

import argparse
import sys
import time
from collections import Counter

from minrep.verify import (
    CHECK_NAMES,
    DEFAULT_CONFIG,
    VerifyConfig,
    run_all,
    suite_status,
)
from minrep.weyl import DEFAULT_BUDGET, STRATEGIES


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--jobs", type=int, default=DEFAULT_CONFIG.jobs)
    ap.add_argument("--strategy", choices=STRATEGIES,
                    default=DEFAULT_CONFIG.strategy)
    ap.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    args = ap.parse_args()

    try:
        config = VerifyConfig(strategy=args.strategy, budget=args.budget,
                              jobs=args.jobs)
    except ValueError as exc:
        ap.error(str(exc))
    start = time.perf_counter_ns()
    reports = run_all(config=config)
    elapsed_ms = (time.perf_counter_ns() - start) // 1_000_000

    print("| record | check | status | evidence |")
    print("|---|---|---|---|")
    for r in reports:
        print(f"| {r.record} | {r.check} | {r.status} "
              f"| {r.evidence.replace('|', '/')} |")

    per_check = {name: Counter() for name in CHECK_NAMES}
    for r in reports:
        per_check[r.check][r.status] += 1
    for name in CHECK_NAMES:
        tally = per_check[name]
        print(f"{name:20s} {tally['pass']:4d} pass "
              f"{tally['skipped']:4d} skipped {tally['fail']:4d} fail",
              file=sys.stderr)
    overall = suite_status(reports)
    print(f"overall: {overall} "
          f"({len(reports)} reports, {elapsed_ms} ms)", file=sys.stderr)
    return 0 if overall == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
