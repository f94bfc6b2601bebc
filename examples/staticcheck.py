#!/usr/bin/env python3
"""Determinism lint of the simulator's own source.

Runs :mod:`repro.analysis.sourcelint` (undeclared-attr, nondet-import,
nondet-set-iteration, nondet-id-order) over ``src/repro``.

Usage:  PYTHONPATH=src python examples/staticcheck.py [--strict] [--json]

``--json`` emits one machine-readable document on stdout (the report
schema ``lint_workloads.py --json`` also uses).  Exits non-zero on
unsuppressed error findings and, under ``--strict``, on warnings or
stale suppressions.
"""

import json
import sys

from repro.analysis.report import reports_to_dict, stale_suppressions
from repro.analysis.sourcelint import SOURCE_SUPPRESSIONS, lint_source


def main() -> int:
    argv = sys.argv[1:]
    unknown = [a for a in argv if a not in ("--strict", "--json")]
    if unknown:
        print(f"unknown argument(s): {' '.join(unknown)}", file=sys.stderr)
        print(__doc__, file=sys.stderr)
        return 2

    report = lint_source()
    stale = stale_suppressions([report], SOURCE_SUPPRESSIONS)
    if "--json" in argv:
        print(json.dumps(
            reports_to_dict(
                [report], tool="staticcheck",
                stale_suppressions=[
                    {"rule": s.rule, "symbols": sorted(s.symbols)} for s in stale
                ],
            ),
            indent=2, sort_keys=True,
        ))
    else:
        print(report.format(show_suppressed=False))
        for s in stale:
            print(
                f"stale suppression: rule={s.rule} symbols={sorted(s.symbols)}",
                file=sys.stderr,
            )
    if report.errors() or ("--strict" in argv and (report.warnings() or stale)):
        if "--json" not in argv:
            print("\nstaticcheck FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        sys.exit(0)
