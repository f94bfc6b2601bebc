#!/usr/bin/env python3
"""Lint the bundled workloads and cross-check reconvergence heuristics.

Runs the repro.analysis workload lint (use-before-def, dead writes,
unreachable code, loop-termination checks) over every bundled kernel,
applying the audited suppressions recorded in ``repro.workloads``, then
prints the heuristic-vs-exact reconvergence report: the static
precision/recall ceiling of the Appendix A.5 hardware heuristics
against exact post-dominator analysis.

Usage:  python examples/lint_workloads.py [scale]

``scale`` defaults to 1.0.  Exits 1 when any workload carries an
unsuppressed finding of either severity, and 2 (with the usage line)
on a bad argument.  The lint's gate is tier-1 (``TestKernelLint`` in
``tests/test_analysis.py``); this script is the human-readable view.
"""

import sys

from repro.analysis import lint_program, reconvergence_report_row
from repro.harness import format_reconv_report
from repro.workloads import (
    WORKLOAD_NAMES,
    build_workload,
    check_workload,
    lint_suppressions,
)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        (scale,) = [float(arg) for arg in argv] or [1.0]
        for name in WORKLOAD_NAMES:
            check_workload(name, scale)
    except ValueError as exc:  # WorkloadError is a ValueError
        print("usage: python examples/lint_workloads.py [scale]", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 2

    clean = True
    rows = []
    for name in WORKLOAD_NAMES:
        program = build_workload(name, scale).program
        report = lint_program(program, lint_suppressions(name))
        print(report.format(show_suppressed=True))
        print()
        clean = clean and report.clean
        rows.append(reconvergence_report_row(program))
    print(format_reconv_report(rows))
    if not clean:
        print("\nlint FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # downstream pager/head closed the pipe; not our error
        sys.exit(0)
