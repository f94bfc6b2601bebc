#!/usr/bin/env python3
"""Spec-engine smoke check: run_spec cells vs the seed golden pickles.

Runs one detailed-core cell (Figure 5, CI @ window 256) and the
idealized cells of every golden workload (Figure 3, all six models @
window 256: the oracle, nWR, WR, FD and base paths) through the
declarative spec engine and diffs the produced IPC against
``tests/goldens/equivalence.pkl`` — the statistics captured from the
seed implementation.  Any drift between "what the registry entry runs"
and "what the paper artifact ran" fails loudly.

Usage:  python examples/spec_smoke.py [workload]

``workload`` picks the detailed cell's kernel (default ``compress``);
the idealized cells always cover every workload with ideal goldens.
"""

from __future__ import annotations

import pickle
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.harness import run_spec  # noqa: E402
from repro.ideal.models import IdealModel  # noqa: E402

#: the goldens were captured at this operating point (see core_bench.py)
SCALE = 0.12
WINDOW = 256
GOLDEN_PATH = REPO_ROOT / "tests" / "goldens" / "equivalence.pkl"


def golden_ipc(goldens: dict, key: tuple) -> float:
    entry = goldens[key]
    return entry["retired"] / entry["cycles"]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    workload = argv[0] if argv else "compress"
    with GOLDEN_PATH.open("rb") as f:
        goldens = pickle.load(f)

    checks = []

    detailed = run_spec(
        "figure5",
        scale=SCALE,
        names=(workload,),
        windows=(WINDOW,),
        cells=[f"CI/w{WINDOW}"],
    )
    checks.append(
        (
            f"figure5/{workload}/CI/w{WINDOW}",
            detailed[workload]["CI"][WINDOW],
            golden_ipc(goldens, ("core", workload, "CI")),
        )
    )

    ideal_workloads = sorted({key[1] for key in goldens if key[0] == "ideal"})
    ideal = run_spec(
        "figure3",
        scale=SCALE,
        names=tuple(ideal_workloads),
        windows=(WINDOW,),
        models=tuple(IdealModel),
    )
    for name in ideal_workloads:
        for model in IdealModel:
            checks.append(
                (
                    f"figure3/{name}/{model.value}/w{WINDOW}",
                    ideal[name][model.value][WINDOW],
                    golden_ipc(goldens, ("ideal", name, model.value)),
                )
            )

    failed = False
    for label, current, expected in checks:
        ok = current == expected
        failed |= not ok
        status = "ok " if ok else "FAIL"
        print(f"{status} {label}: run_spec={current:.6f} golden={expected:.6f}")
    if failed:
        print("spec engine diverged from the seed goldens", file=sys.stderr)
        return 1
    print(f"spec smoke: {len(checks)} cells match the seed goldens exactly")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
