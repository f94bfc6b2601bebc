#!/usr/bin/env python3
"""Run a differential fuzzing campaign over the machine registry.

Generates seeded random programs from the workload families, runs every
requested machine through the differential oracle, shrinks any
divergence to a minimized reproducer, and writes a structured triage
report.  The campaign is checkpointed (kill it, rerun the same command,
zero completed cases repeat), budgeted (``--budget-seconds``), and
survives abrupt worker death when parallel (``--jobs``).

Typical invocations::

    # CI smoke: 200 cases, every machine, fixed seed, must be clean
    python examples/fuzz_campaign.py --seed 0 --cases 200

    # overnight deep run with resume + corpus
    python examples/fuzz_campaign.py --seed 7 --cases 100000 --jobs 8 \
        --budget-seconds 21600 --checkpoint /tmp/fuzz.ckpt.json \
        --corpus-dir /tmp/fuzz-corpus --report /tmp/fuzz-report.json

    # injected-fault dry run: prove the pipeline catches planted bugs
    python examples/fuzz_campaign.py --cases 5 --machines functional \
        --inject-fault alu-xor --corpus-dir /tmp/corpus

Exit status: 0 when every executed case is clean (mutant dry runs are
*expected* to diverge, so --inject-fault inverts nothing — the status
reflects errors only), 1 when a real machine diverged or any case
errored.
"""

import argparse
import json
import sys

from repro.fuzz import CampaignConfig, run_campaign
from repro.fuzz.mutants import MUTANT_NAMES
from repro.machines import MACHINES
from repro.workloads.families import FAMILY_NAMES


def parse_args(argv=None) -> tuple[argparse.Namespace, CampaignConfig]:
    """Parse the command line into a validated campaign configuration."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (case i uses seed*1000003+i)")
    parser.add_argument("--cases", type=int, default=200,
                        help="number of generated cases")
    parser.add_argument("--machines", nargs="+", metavar="NAME",
                        choices=sorted(MACHINES), default=None,
                        help="registry machines to test (default: all)")
    parser.add_argument("--family", nargs="+", metavar="NAME",
                        choices=FAMILY_NAMES, default=None,
                        help="workload families to cycle (default: all)")
    parser.add_argument("--inject-fault", nargs="+", metavar="MUTANT",
                        choices=MUTANT_NAMES, default=(),
                        help="add known-buggy executors (pipeline dry run)")
    parser.add_argument("--scale", type=float, default=0.5,
                        help="workload scale knob (loop trip multiplier)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1 = serial)")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="per-case timeout in seconds")
    parser.add_argument("--budget-seconds", type=float, default=None,
                        help="wall-clock budget; undispatched cases skip")
    parser.add_argument("--checkpoint", default=None,
                        help="checkpoint path (enables kill/resume)")
    parser.add_argument("--corpus-dir", default=None,
                        help="directory for minimized reproducers")
    parser.add_argument("--no-shrink", action="store_true",
                        help="keep full divergent programs (skip ddmin)")
    parser.add_argument("--report", default=None,
                        help="write the JSON triage report here")
    args = parser.parse_args(argv)
    config = CampaignConfig(
        seed=args.seed,
        cases=args.cases,
        machines=tuple(args.machines) if args.machines else None,
        families=tuple(args.family) if args.family else None,
        mutants=tuple(args.inject_fault),
        scale=args.scale,
        jobs=args.jobs,
        timeout_seconds=args.timeout,
        budget_seconds=args.budget_seconds,
        checkpoint_path=args.checkpoint,
        corpus_dir=args.corpus_dir,
        shrink=not args.no_shrink,
    )
    try:
        config.validate()
    except ValueError as exc:  # ConfigError and WorkloadError are ValueErrors
        parser.error(str(exc))
    return args, config


def main(argv=None) -> int:
    args, config = parse_args(argv)
    report = run_campaign(config)

    counts = report["counts"]
    print(f"campaign seed={args.seed} cases={counts['total']} "
          f"machines={len(report['campaign']['machines'])} "
          f"mutants={report['campaign']['mutants'] or 'none'}")
    print(f"  executed={counts['executed']} resumed={counts['resumed']} "
          f"clean={counts['clean']} divergent={counts['divergent']} "
          f"error={counts['error']} crashed={counts['crashed']} "
          f"skipped={counts['skipped']}")
    print(f"  wall={report['wall_seconds']:.1f}s "
          f"({report['cases_per_second']:.2f} cases/sec)")
    if report["signature_groups"]:
        print("  divergence signatures:")
        for group, count in sorted(report["signature_groups"].items()):
            print(f"    {group}: {count}")
    for entry in report["divergences"]:
        line = f"  DIVERGENT {entry['workload']}: {entry['signature']}"
        if "reproducer" in entry:
            line += (f" -> {entry['reproducer']} "
                     f"({entry['shrunk_instructions']} instrs)")
        print(line)
    for entry in report["errors"]:
        print(f"  ERROR {entry['case']}: "
              f"{entry['error_type']}: {entry['error']}")

    if args.report:
        with open(args.report, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"  report written to {args.report}")

    # Mutant divergences are the dry run working as designed; only real
    # machines going divergent (no mutants configured) or case errors
    # (excluding deliberate budget skips) fail the campaign.
    real_divergence = counts["divergent"] > 0 and not args.inject_fault
    failed = real_divergence or counts["error"] > 0 or counts["crashed"] > 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
