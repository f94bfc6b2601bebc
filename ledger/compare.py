"""Compare two sets of ledger runs, one row per workload.

    python3 ledger/compare.py PARENT.json CHANGE.json

Each file holds the records ``run.py --out`` collects.  For every
workload, the untraced runs of the two files are paired in file order
(run i of the parent with run i of the change; alternate which side
runs first while collecting them).  Each end-to-end metric declared in
``BENCHMARK.json`` gets one verdict:

* ``insufficient`` -- fewer than 10 pairs;
* ``unresolved`` -- either side's spread (interquartile range over
  median) exceeds the metric's bound, and not every change run reads
  better than every parent run (then ``better``);
* ``gain`` -- the change wins at least 9 of 10 pairs (ties count for
  neither) and its median beats the parent's by more than the parent's
  interquartile range;
* ``regression`` -- the change's median is worse than the parent's by
  more than the bound;
* ``same`` -- otherwise.

Exits 1 when any (workload, metric) pair regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent: list[float], change: list[float], bound: float, better: str) -> str:
    pairs = list(zip(parent, change))
    if len(pairs) < MIN_PAIRS:
        return "insufficient"
    parent, change = [a for a, _ in pairs], [b for _, b in pairs]
    sign = -1 if better == "lower" else 1

    def gain(old: float, new: float) -> float:
        return sign * (new - old)

    mid_a, mid_b = statistics.median(parent), statistics.median(change)
    if max(iqr(parent) / mid_a, iqr(change) / mid_b) > bound:
        if all(gain(a, b) > 0 for a in parent for b in change):
            return "better"
        return "unresolved"
    wins = sum(1 for a, b in pairs if gain(a, b) > 0)
    if wins >= WIN_SHARE * len(pairs) and gain(mid_a, mid_b) > iqr(parent):
        return "gain"
    if -gain(mid_a, mid_b) > bound * mid_a:
        return "regression"
    return "same"


def load_runs(path: Path) -> dict[str, list[dict]]:
    """Untraced, full-size runs by workload, in file order."""
    by_workload: dict[str, list[dict]] = {}
    for run in json.loads(path.read_text())["runs"]:
        if not run["trace"] and not run["smoke"]:
            by_workload.setdefault(run["workload"], []).append(run["metrics"])
    return by_workload


def compare(parent: dict, change: dict, declared: list[dict]) -> dict[str, dict]:
    """workload -> metric -> (verdict, median change as a share)."""
    rows: dict[str, dict] = {}
    for workload in parent:
        if workload not in change:
            continue
        row = {}
        for metric in declared:
            name = metric["name"]
            a = [m[name] for m in parent[workload]]
            b = [m[name] for m in change[workload]]
            shift = statistics.median(b) / statistics.median(a) - 1
            row[name] = (verdict(a, b, metric["bound"], metric["better"]), shift)
        rows[workload] = row
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rows = compare(load_runs(Path(argv[0])), load_runs(Path(argv[1])), declared)
    regressed = False
    for workload, row in rows.items():
        cells = []
        for name, (word, shift) in row.items():
            cells.append(f"{name}={word}({shift:+.1%})")
            regressed |= word == "regression"
        print(f"{workload:18s} " + "  ".join(cells))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
