#!/usr/bin/env python3
"""Run a study grid in parallel and check it against the serial path.

Fans the experiments × workloads grid across worker processes, checks
the rows are identical to a serial run's, and prints how many
distinct detailed cells the pool simulated.  Timing
claims go through the performance ledger (``ledger/run.py``), not this
script.

Usage:
    python parallel_study.py --jobs 4
    python parallel_study.py --jobs auto --experiments figure3 figure5 --scale 0.12
    python parallel_study.py --jobs 4 --skip-serial --checkpoint study.json
    python parallel_study.py --list
    python parallel_study.py --experiments figure10 --names vortex --skip-serial

``--jobs`` defaults to the REPRO_JOBS environment variable (else 1);
``--cache-dir`` persists the content-addressed golden-trace cache
across runs (otherwise a per-study temporary directory is used).
``--list`` enumerates every registered spec with its cells and exits.
A partial rerun narrows the grid with ``--experiments`` and ``--names``.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.harness import (
    get_spec,
    resolve_jobs,
    run_study,
    runnable_experiments,
    spec_names,
    validate_experiments,
)
from repro.workloads import WORKLOAD_NAMES, check_workload


def list_specs() -> None:
    """Print every registered artifact with its cells and workloads."""
    for name in spec_names():
        spec = get_spec(name)
        print(f"{name:10s} {spec.artifact:9s} scale={spec.default_scale:<5g} "
              f"{spec.title}")
        if spec.derives is not None:
            print(f"{'':10s} derived from {spec.derives!r} "
                  f"via transform {spec.transform.__name__}")
        else:
            labels = ", ".join(spec.cell_labels())
            print(f"{'':10s} cells: {labels}")
        print(f"{'':10s} workloads: {', '.join(WORKLOAD_NAMES)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Parallel study execution with golden-trace caching"
    )
    parser.add_argument(
        "--jobs", default=None,
        help="worker processes: a positive int or 'auto' (default: $REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--experiments", nargs="+", default=["figure3", "figure5"],
        metavar="EXP", help=f"experiments to run (from {sorted(runnable_experiments())})",
    )
    parser.add_argument(
        "--names", nargs="+", default=list(WORKLOAD_NAMES), metavar="WORKLOAD",
        help="workloads to run (default: all five)",
    )
    parser.add_argument("--scale", type=float, default=0.12,
                        help="workload scale (default 0.12)")
    parser.add_argument("--checkpoint", type=Path, default=None,
                        help="checkpoint file for resumable runs")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="persistent artifact-cache directory")
    parser.add_argument(
        "--skip-serial", action="store_true",
        help="run only the parallel study (no baseline, no identity check)",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="enumerate registered specs/cells and exit",
    )
    args = parser.parse_args(argv)

    if args.list:
        list_specs()
        return 0

    try:
        chosen = validate_experiments(args.experiments)
        jobs = resolve_jobs(args.jobs)
        for name in args.names:
            check_workload(name, args.scale)
    except ValueError as exc:  # ConfigError and WorkloadError are ValueErrors
        parser.error(str(exc))
    names = tuple(args.names)
    grid = len(chosen) * len(names)
    print(f"grid: {len(chosen)} experiments x {len(names)} workloads "
          f"= {grid} cells, scale {args.scale}, jobs {jobs}")

    serial_out = None
    if not args.skip_serial:
        print("serial baseline ...", flush=True)
        t0 = time.perf_counter()
        serial_out = run_study(
            experiments=chosen, scale=args.scale, names=names, jobs=1,
        )
        print(f"  {time.perf_counter() - t0:.3f}s, "
              f"{len(serial_out['failures'])} failed cells")

    print(f"parallel run (jobs={jobs}) ...", flush=True)
    t0 = time.perf_counter()
    parallel_out = run_study(
        experiments=chosen, scale=args.scale, names=names, jobs=jobs,
        checkpoint_path=args.checkpoint, cache_dir=args.cache_dir,
    )
    print(f"  {time.perf_counter() - t0:.3f}s, {parallel_out['resumed']} resumed, "
          f"{len(parallel_out['failures'])} failed cells")
    print(f"distinct detailed cells simulated by the pool: "
          f"{parallel_out['wave1_cells']}")

    if serial_out is not None:
        # Compared as JSON: rows resumed from --checkpoint carry string
        # window keys and lists where a fresh row has ints and tuples.
        identical = json.dumps(serial_out["results"], sort_keys=True) == json.dumps(
            parallel_out["results"], sort_keys=True
        )
        print(f"rows identical to serial: {identical}")
        if not identical:
            print("ERROR: parallel rows diverge from the serial baseline",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
