#!/usr/bin/env python3
"""Regenerate every table and figure of the paper in one study.

Runs all runnable artifacts over the five kernels through one
``run_study`` per scale (so each distinct detailed cell simulates once),
folds the rows with ``study_artifacts`` (Figure 6 derives from Figure
5) and prints the 14 artifacts in paper order through their formatters.
The paper's qualitative claims over these artifacts are asserted by
``tests/test_claims.py``; timings come from the ledger
(``ledger/run.py``).

Usage:  python examples/paper_tables.py [scale]

Without ``scale`` each artifact runs at its registry ``default_scale``
(Table 1 at 1.0, Figure 3 at 0.4, the detailed-core artifacts at 0.12:
the operating points EXPERIMENTS.md reports).  ``REPRO_JOBS`` fans the
cells over worker processes, as for any study.  A bad argument (not one
number, or a scale the workloads reject) prints the usage line and
exits 2.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.harness import (  # noqa: E402
    format_experiment,
    get_spec,
    run_study,
    runnable_experiments,
    spec_names,
    study_artifacts,
)
from repro.workloads import WORKLOAD_NAMES, check_workload  # noqa: E402


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        (scale,) = [float(arg) for arg in argv] or [None]
        if scale is not None:
            for name in WORKLOAD_NAMES:
                check_workload(name, scale)
    except ValueError as exc:  # WorkloadError is a ValueError
        print("usage: python examples/paper_tables.py [scale]", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    by_scale: dict = {}
    for name in runnable_experiments():
        run_at = get_spec(name).default_scale if scale is None else scale
        by_scale.setdefault(run_at, []).append(name)
    results: dict = {}
    failures: list = []
    for run_at, experiments in by_scale.items():
        study = run_study(experiments, scale=run_at)
        results.update(study["results"])
        failures.extend(study["failures"])
    if failures:
        for failure in failures:
            print(f"FAILED {failure.key}: {failure.error_type}: {failure.error}",
                  file=sys.stderr)
        return 1
    data = study_artifacts(results)
    for name in spec_names():
        print(format_experiment(name, data[name]))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
