#!/usr/bin/env python3
"""Run the self-verification corpus and print a human-readable summary.

Exit code mirrors the library verdict: 0 when every check passes, 1 otherwise;
2 for a usage error, such as a tolerance that is not a positive finite number.
"""
from __future__ import annotations

import argparse
import sys

from coronakit import run_verification
from coronakit.cli import _positive_float


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tolerance", type=_positive_float, help="override every pass/fail bound")
    parser.add_argument(
        "--pair",
        nargs=2,
        action="append",
        metavar=("G1", "G2"),
        help="extra catalog pair, e.g. --pair P4 C5; repeatable",
    )
    args = parser.parse_args()

    pairs = None
    if args.pair:
        from coronakit import builtin_pairs

        pairs = list(builtin_pairs()) + [tuple(p) for p in args.pair]
    report = run_verification(pairs=pairs, tolerance=args.tolerance)

    counts: dict[str, int] = {}
    for case in report.cases:
        counts[case.status] = counts.get(case.status, 0) + 1
    print(f"{len(report.cases)} checks: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    print()
    print(f"{'check family':<34}{'max deviation':>16}")
    for family, deviation in report.summary.items():
        print(f"{family:<34}{deviation:>16.3e}")

    failures = [c for c in report.cases if c.status == "fail"]
    if failures:
        print()
        print("failures:")
        for case in failures:
            print(f"  {case.case_id}: deviation {case.deviation:.3e} > {case.tolerance:.3e}")
    infos = [c for c in report.cases if c.status == "info" and c.deviation]
    if infos:
        print()
        print("informational discrepancies (printed variants, never fail the run):")
        for case in infos:
            print(f"  {case.case_id}: drift {case.deviation:.3e}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
