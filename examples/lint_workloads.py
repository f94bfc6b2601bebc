#!/usr/bin/env python3
"""Lint the bundled workloads and cross-check reconvergence heuristics.

Runs the repro.analysis workload lint (use-before-def, dead writes,
unreachable code, loop-termination checks) over every bundled kernel,
applying the audited suppressions recorded in ``repro.workloads``, then
prints the heuristic-vs-exact reconvergence report: the static
precision/recall ceiling of the Appendix A.5 hardware heuristics
against exact post-dominator analysis.

Usage:  python lint_workloads.py [scale] [--strict] [--json]

``--json`` emits one machine-readable document on stdout (the same
report schema as the source determinism lint's ``staticcheck.py
--json``, so CI artifacts from both linters diff uniformly).  Exits non-zero when any workload carries
unsuppressed error-severity diagnostics; ``--strict`` also fails on
warnings.
"""

import json
import sys

from repro.analysis import lint_program, reconvergence_report_row, reports_to_dict
from repro.harness import format_reconv_report
from repro.workloads import WORKLOAD_NAMES, build_workload, lint_suppressions


def main() -> int:
    flags = {a for a in sys.argv[1:] if a.startswith("--")}
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    strict = "--strict" in flags
    as_json = "--json" in flags
    scale = float(args[0]) if args else 1.0

    failed = False
    reports = []
    rows = []
    for name in WORKLOAD_NAMES:
        program = build_workload(name, scale).program
        report = lint_program(program, lint_suppressions(name))
        reports.append(report)
        if not as_json:
            print(report.format(show_suppressed=True))
            print()
        if report.errors() or (strict and report.warnings()):
            failed = True
        rows.append(reconvergence_report_row(program))

    if as_json:
        print(json.dumps(
            reports_to_dict(reports, tool="lint_workloads", scale=scale),
            indent=2, sort_keys=True,
        ))
    else:
        print(format_reconv_report(rows))
    if failed:
        print("\nlint FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # downstream pager/head closed the pipe; not our error
        sys.exit(0)
