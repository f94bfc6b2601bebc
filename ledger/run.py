"""Layered performance ledger: end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 ledger/run.py --workload paper-study --seed 0 --seconds 20 --trace 0
    python3 ledger/run.py                  # every workload, untraced then traced

Every sample runs in its own fresh subprocess (``ledger/unit.py``), one
process at a time: a closed loop with one client, as users run studies.
The subprocess gets ``src`` on ``PYTHONPATH`` and no ``REPRO_*``
variables.  An untraced run repeats timed units until the next one would
end past ``--seconds`` (at least one) and reports medians; it takes at
least ``SETUP_SAMPLES`` set-up samples.  A traced run (``--trace 1``)
runs one untraced and one traced unit and reports the per-layer metrics
of the traced one; its spans go to ``<out>.trace-<workload>.json``.

Every unit's outputs are checked against ``ledger/digests.json``; a
mismatch or a failed operation makes ``correct`` false, names the
artifact, and exits 1.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--out`` (default ``.ledger_out/ledger.json``) collects
every run's full record; ``ledger/compare.py`` reads two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-study", "paper-study-jobs2", "ideal-sweep", "fuzz-campaign")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

#: end-to-end metric -> unit.  The first four are declared in
#: BENCHMARK.json; times there are scaled to the nominal host speed
#: (``hostspeed.py``).  The rest are printed and recorded but not
#: declared: failed_frac is normally 0, which a declared metric may never
#: read (the result's ``failed`` carries it), and the raw times are what
#: the scaled ones were derived from.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_kips": "kinstr/s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "raw_setup_s": "s",
    "raw_wall_s": "s",
    "host_speed": "ratio",
}
DECLARED = ("setup_s", "wall_s", "sim_kips", "peak_rss_mb")


class LedgerError(Exception):
    """A sample could not run; the run ends without a result."""


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def git_commit() -> str | None:
    """HEAD's commit read from ``.git`` (None outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "platform": platform.platform(),
    }


def sample(workload: str, seed: int, role: str, workdir: Path, smoke: bool,
           trace: int = 0, trace_file: Path | None = None) -> dict:
    """Run one fresh ``unit.py`` process and return its JSON line."""
    cmd = [sys.executable, str(HERE / "unit.py"), "--workload", workload,
           "--seed", str(seed), "--role", role, "--trace", str(trace),
           "--workdir", str(workdir)]
    if smoke:
        cmd.append("--smoke")
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise LedgerError(f"{workload} {role} sample exceeded {CHILD_TIMEOUT_S}s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise LedgerError(f"{workload} {role} sample exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, workdir: Path, smoke: bool) -> dict:
    """An untraced run: timed units within ``seconds``, medians reported."""
    units = []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        units.append(sample(workload, seed, "unit", workdir, smoke))
        units[-1]["elapsed_s"] = time.perf_counter() - t0
        next_end = time.perf_counter() - started + median([u["elapsed_s"] for u in units])
        if next_end > seconds:
            break
    setups = [{k: u[k] for k in ("setup_s", "raw_setup_s")} for u in units]
    while len(setups) < SETUP_SAMPLES:
        setups.append(sample(workload, seed, "setup", workdir, smoke))
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    metrics = {
        "setup_s": median([s["setup_s"] for s in setups]),
        "wall_s": median([u["wall_s"] for u in units]),
        "sim_kips": median([u["instructions"] / u["wall_s"] / 1000 for u in units]),
        "peak_rss_mb": median([u["peak_rss_mb"] for u in units]),
        "failed_frac": failed / attempted,
        "raw_setup_s": median([s["raw_setup_s"] for s in setups]),
        "raw_wall_s": median([u["raw_wall_s"] for u in units]),
        "host_speed": median([u["host_speed"] for u in units]),
    }
    return {"units": units, "setup_samples": setups, "metrics": metrics,
            "attempted": attempted, "failed": failed}


def measure_traced(workload: str, seed: int, workdir: Path, smoke: bool,
                   trace_file: Path) -> dict:
    """A traced run: one untraced unit as the overhead baseline, then one
    traced unit whose spans give the per-layer metrics."""
    plain = sample(workload, seed, "unit", workdir, smoke)
    traced = sample(workload, seed, "unit", workdir, smoke, trace=1, trace_file=trace_file)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
    return {"units": [plain, traced], "metrics": metrics,
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "trace_digests_match": plain["digests"] == traced["digests"]}


def problems(record: dict) -> list[str]:
    """Why a run's outputs are not correct (empty when they are)."""
    out = []
    for unit in record["units"]:
        out += [f"digest mismatch: {a}" for a in unit["mismatches"]]
        out += [f"divergent fuzz case: {c}" for c in unit["facts"].get("divergent_cases", [])]
    if record["failed"]:
        out.append(f"{record['failed']} of {record['attempted']} operations failed")
    if record.get("trace_digests_match") is False:
        out.append("traced and untraced digests differ")
    return sorted(set(out))


def unit_of(name: str) -> str:
    return END_TO_END[name] if name in END_TO_END else LAYER_METRICS[name][0]


def run_one(workload, seed, seconds, trace, workdir, smoke, out) -> dict:
    if trace:
        trace_file = Path(f"{out}.trace-{workload}.json")
        record = measure_traced(workload, seed, workdir, smoke, trace_file)
    else:
        record = measure(workload, seed, seconds, workdir, smoke)
    record.update(workload=workload, seed=seed, trace=trace, smoke=smoke,
                  seconds=seconds, problems=problems(record))
    for name, value in record["metrics"].items():
        print(f"{workload:18s} {name:42s} {value:14.6g} {unit_of(name)}")
    for problem in record["problems"]:
        print(f"{workload}: {problem}", file=sys.stderr)
    return record


def save(out: Path, records: list[dict]) -> None:
    """Append the records to ``out`` (one JSON object with a run list)."""
    runs = json.loads(out.read_text())["runs"] if out.is_file() else []
    out.write_text(json.dumps({"environment": environment(), "runs": runs + records},
                              indent=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, untraced then traced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".ledger_out" / "ledger.json")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs for tests; digests are not checked")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"ledger: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2

    env = environment()
    print(f"python {env['python']}  nproc {env['nproc']}  commit {env['commit']}")
    workdir = args.out.parent / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    if args.workload:
        plan = [(args.workload, args.trace)]
    else:
        plan = [(w, t) for w in WORKLOADS for t in (0, 1)]
    try:
        records = [run_one(w, args.seed, args.seconds, t, workdir, args.smoke, args.out)
                   for w, t in plan]
    except LedgerError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 1
    save(args.out, records)

    if args.workload:
        metrics = {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in records[0]["metrics"].items()
            if args.trace or name in DECLARED
        }
    else:
        metrics = {
            f"{r['workload']}.{name}": {"value": value, "unit": unit_of(name)}
            for r in records for name, value in r["metrics"].items()
        }
    correct = not any(r["problems"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
