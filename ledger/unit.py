"""One fresh ledger process: set up a workload, optionally run one unit.

``run.py`` starts this file once per sample, with ``src`` on
``PYTHONPATH`` and every ``REPRO_*`` variable removed.  The clock and
the host-speed sampler start before ``repro`` is imported, so
``setup_s`` covers the import, the spec registry and the artifact
derivation.  With ``--role unit`` the process then runs one timed unit
of the workload and checks its digests.  Every time is reported raw
(sampler time subtracted) and scaled to the nominal host speed.  The
last line of standard output is one JSON object.
"""

import time

STARTED = time.perf_counter()

from hostspeed import HostSpeed  # noqa: E402

SPEED = HostSpeed()
SPEED.start()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: digests minted on the seed code: workload -> artifact -> sha256
PINNED = Path(__file__).resolve().parent / "digests.json"


def pinned_mismatches(workload: str, digests: dict) -> list[str]:
    """Artifacts whose digest differs from the one pinned for them."""
    pins = json.loads(PINNED.read_text()).get(workload, {})
    return sorted(a for a, d in digests.items() if a in pins and pins[a] != d)


def wait_for_children(timeout: float = 30.0) -> None:
    """Reap finished pool workers so their peak RSS is accounted."""
    import multiprocessing

    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", choices=("setup", "unit"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)

    from work import WORKLOADS

    workload = WORKLOADS[args.workload]
    ctx = workload.setup(args.seed, args.smoke)
    SPEED.stop()
    setup_raw = time.perf_counter() - STARTED - SPEED.spent
    out = {"setup_s": SPEED.scale(setup_raw), "raw_setup_s": setup_raw}
    if args.role == "setup":
        print(json.dumps(out))
        return 0

    from spans import Probe, layer_metrics

    probe = Probe(trace=bool(args.trace), worker_dir=args.workdir, speed=SPEED)
    probe.install()
    SPEED.start()
    start = time.perf_counter()
    with probe.span("unit", cell=args.workload):
        result = workload.run(ctx, args.workdir)
    SPEED.stop()
    wall_raw = time.perf_counter() - start - SPEED.spent
    probe.uninstall()
    wait_for_children()
    probe.collect_workers()

    out.update(
        wall_s=SPEED.scale(wall_raw),
        raw_wall_s=wall_raw,
        host_speed=SPEED.factor(),
        instructions=probe.retired,
        peak_rss_mb=peak_rss_mb(),
        attempted=result["attempted"],
        failed=result["failed"],
        digests=result["digests"],
        mismatches=[] if args.smoke else pinned_mismatches(args.workload, result["digests"]),
        facts=result["facts"],
    )
    if args.trace:
        out["layers"] = layer_metrics(probe.spans, result["facts"])
        args.trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "spans": probe.spans,
        }))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
