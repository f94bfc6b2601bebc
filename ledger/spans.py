"""Outside-in instrumentation of the simulator's public layer functions.

A :class:`Probe` patches layer entry points at the name each caller
actually looks up (a module global or a class attribute), so nothing
under ``src/`` changes.  It does two things:

* it always counts simulated retired instructions at the three cell
  entry points (detailed ``Processor.run``, the ideal scheduler and the
  functional machine); this numerator of ``sim_kips`` is a
  deterministic count, so counting it costs no clock reads;
* with ``trace=True`` it also records one span per wrapped call: name,
  start, end, parent span, process id and the study cell or fuzz case
  the call belongs to.  Spans stay in memory until the unit ends.

Pool workers forked by ``repro.harness.parallel`` inherit the patched
functions.  After each cell a worker appends its counts, spans and
host-speed samples to a JSON-lines file in ``worker_dir``, and the
parent folds those files in with :meth:`Probe.collect_workers`.
``time.perf_counter`` is the system-wide monotonic clock on Linux, so
worker and parent spans share one time base.

:func:`layer_metrics` turns spans into the per-layer metrics of
:data:`LAYER_METRICS`.  A span's self time is its duration minus the
part of it covered by child spans of the same process.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: every per-layer metric: name -> (unit, which direction is better)
LAYER_METRICS = {
    "core.run_s": ("s", "lower"),
    "core.build_s": ("s", "lower"),
    "core.cells": ("count", "higher"),
    "core.cycles": ("count", "lower"),
    "core.retired": ("count", "higher"),
    "core.fetched": ("count", "lower"),
    "core.useful_fetch_ratio": ("ratio", "higher"),
    "core.issues": ("count", "lower"),
    "core.issues_per_retired": ("ratio", "lower"),
    "core.recoveries": ("count", "lower"),
    "core.reconverged_frac": ("ratio", "higher"),
    "core.host_us_per_cycle": ("us", "lower"),
    "core.pool_claims": ("count", "lower"),
    "core.stage_fetch_cycles": ("count", "lower"),
    "core.stage_dispatch_cycles": ("count", "lower"),
    "core.stage_issue_cycles": ("count", "lower"),
    "core.stage_complete_cycles": ("count", "lower"),
    "core.stage_recover_cycles": ("count", "lower"),
    "core.stage_retire_cycles": ("count", "lower"),
    "ideal.schedule_s": ("s", "lower"),
    "ideal.cells": ("count", "higher"),
    "ideal.cycles": ("count", "lower"),
    "ideal.retired": ("count", "higher"),
    "ideal.host_ns_per_cycle": ("ns", "lower"),
    "ideal.wrong_path_per_retired": ("ratio", "lower"),
    "ideal.annotate_s": ("s", "lower"),
    "core.golden_s": ("s", "lower"),
    "cfg.reconv_s": ("s", "lower"),
    "functional.run_s": ("s", "lower"),
    "functional.steps": ("count", "lower"),
    "workloads.build_s": ("s", "lower"),
    "workloads.builds": ("count", "lower"),
    "bpred.measure_s": ("s", "lower"),
    "harness.cache.lookup_s": ("s", "lower"),
    "harness.cache.memory_hits": ("count", "higher"),
    "harness.cache.disk_hits": ("count", "higher"),
    "harness.cache.misses": ("count", "lower"),
    "harness.cache.hit_rate": ("ratio", "higher"),
    "harness.spec.row_self_s": ("s", "lower"),
    "harness.spec.rows": ("count", "higher"),
    "harness.runner.cells": ("count", "higher"),
    "harness.runner.attempts": ("count", "lower"),
    "harness.runner.failures": ("count", "lower"),
    "harness.runner.cell_p50_ms": ("ms", "lower"),
    "harness.runner.cell_tail_ms": ("ms", "lower"),
    "harness.runner.cell_tail_pct": ("%", "higher"),
    "harness.tables.format_s": ("s", "lower"),
    "harness.parallel.pool_s": ("s", "lower"),
    "harness.parallel.tasks": ("count", "higher"),
    "harness.parallel.efficiency": ("ratio", "higher"),
    "harness.checkpoint.records": ("count", "higher"),
    "harness.checkpoint.record_s": ("s", "lower"),
    "harness.checkpoint.bytes": ("B", "lower"),
    "harness.checkpoint.resumed": ("count", "higher"),
    "harness.checkpoint.resume_mismatch_rows": ("count", "lower"),
    "fuzz.cases": ("count", "higher"),
    "fuzz.case_p50_ms": ("ms", "lower"),
    "fuzz.case_tail_ms": ("ms", "lower"),
    "fuzz.case_tail_pct": ("%", "higher"),
    "fuzz.oracle_self_s": ("s", "lower"),
    "fuzz.divergences": ("count", "lower"),
    "analysis.invariants_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

_STAGES = ("fetch", "dispatch", "issue", "complete", "recover", "retire")


class Probe:
    """Patches layer functions; counts instructions, optionally traces."""

    def __init__(self, trace: bool, worker_dir: Path, speed=None):
        self.trace = trace
        self.worker_dir = Path(worker_dir)
        #: the run's :class:`hostspeed.HostSpeed`; workers sample too
        self.speed = speed
        self.pid = os.getpid()
        self.retired = 0
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------

    def _adopt_fork(self) -> None:
        # A forked pool worker starts with the parent's counts and
        # finished spans; it reports only its own.  The open-span stack
        # is kept, so worker spans hang under the parent's pool span.
        # Interval timers are not inherited, so sampling restarts here.
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.retired = 0
            self.spans = []
            if self.speed is not None:
                self.speed.start()

    def _open(self, name: str, cell) -> dict:
        parent = self._stack[-1] if self._stack else None
        if cell is None and parent is not None:
            cell = parent["cell"]
        span = {
            "id": f"{self.pid}-{self._next_id}",
            "name": name,
            "parent": parent["id"] if parent else None,
            "cell": cell,
            "pid": self.pid,
            "start": time.perf_counter(),
        }
        self._next_id += 1
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, cell=None):
        """A span opened by the ledger itself (e.g. the whole unit)."""
        if not self.trace:
            yield None
            return
        span = self._open(name, cell)
        try:
            yield span
        finally:
            self._close(span)

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make(original))
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def count(self, owner, attr: str, measure) -> None:
        """Add ``measure(result)`` simulated instructions per call."""
        probe = self

        def make(original):
            def counted(*args, **kwargs):
                probe._adopt_fork()
                result = original(*args, **kwargs)
                probe.retired += measure(result)
                return result

            return counted

        self._patch(owner, attr, make)

    def wrap(self, owner, attr: str, name: str, cell=None, after=None, before=None):
        """Record a span named ``name`` around every call.

        ``cell(args)`` names the cell the call starts (children inherit
        it); ``after(args, result, state)`` returns attributes to store
        on the span, where ``state`` is ``before(args)``.
        """
        probe = self

        def make(original):
            def traced(*args, **kwargs):
                probe._adopt_fork()
                state = before(args) if before else None
                span = probe._open(name, cell(args) if cell else None)
                try:
                    result = original(*args, **kwargs)
                    if after:
                        span.update(after(args, result, state))
                    return result
                finally:
                    probe._close(span)

            return traced

        self._patch(owner, attr, make)

    def ship_from_workers(self, owner, attr: str) -> None:
        """After each call inside a forked worker, hand counts and spans
        to the parent through ``worker_dir``."""
        probe = self

        def make(original):
            def shipped(*args, **kwargs):
                probe._adopt_fork()
                try:
                    return original(*args, **kwargs)
                finally:
                    record = {"retired": probe.retired, "spans": probe.spans,
                              "speed": probe.speed.samples if probe.speed else []}
                    path = probe.worker_dir / f"worker-{probe.pid}.jsonl"
                    with path.open("a") as fh:
                        fh.write(json.dumps(record) + "\n")
                    probe.retired = 0
                    probe.spans = []
                    if probe.speed is not None:
                        probe.speed.samples = []

            return shipped

        self._patch(owner, attr, make)

    def collect_workers(self) -> None:
        """Fold every worker's shipped counts, spans and host-speed
        samples into this probe."""
        for path in sorted(self.worker_dir.glob("worker-*.jsonl")):
            for line in path.read_text().splitlines():
                record = json.loads(line)
                self.retired += record["retired"]
                self.spans.extend(record["spans"])
                if self.speed is not None:
                    self.speed.samples.extend(record["speed"])
            path.unlink()

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- the layer map -------------------------------------------------

    def install(self) -> None:
        """Patch every layer boundary the ledger measures."""
        import repro.harness.parallel
        import repro.machines
        from repro.core import Processor

        self.count(Processor, "run", lambda stats: stats.retired)
        self.count(repro.machines, "simulate_ideal", lambda result: result.retired)
        self.count(repro.machines, "run_functional", len)
        if self.trace:
            self._install_spans()
        # Outermost, so a worker's cell span is closed before it ships.
        self.ship_from_workers(repro.harness.parallel, "_run_cell")

    def _install_spans(self) -> None:
        import repro.cfg
        import repro.core.golden
        import repro.fuzz.campaign
        import repro.fuzz.oracle
        import repro.harness.cache
        import repro.harness.experiments
        import repro.harness.parallel
        import repro.harness.runner
        import repro.harness.spec
        import repro.harness.tables
        import repro.machines
        import repro.workloads
        from repro.core import GoldenTrace, Processor

        def core_stats(args, s, _):
            out = {
                "cycles": s.cycles,
                "retired": s.retired,
                "fetched": s.fetched,
                "issues": s.issues_total,
                "recoveries": s.recoveries,
                "reconverged": s.reconverged_recoveries,
                "pool_claims": args[0].pool.allocated_total,
            }
            for stage in _STAGES:
                out[f"stage_{stage}"] = getattr(s, f"stage_{stage}_cycles")
            return out

        def ideal_stats(args, result, _):
            return {
                "cycles": result.cycles,
                "retired": result.retired,
                "wrong_path": result.fetched_wrong_path,
            }

        def steps(args, trace, _):
            return {"steps": len(trace)}

        def cache_counts(args):
            s = args[0].stats
            return (s.memory_hits, s.disk_hits, s.misses)

        def cache_hit(args, _, before):
            s = args[0].stats
            delta = (
                s.memory_hits - before[0],
                s.disk_hits - before[1],
                s.misses - before[2],
            )
            return {"hit": ("memory", "disk", "miss")[delta.index(1)]}

        def row_cell(args):
            return f"{args[0]}/{args[1]}"

        def cell_key(args):
            return getattr(args[1], "key", args[1])

        def cell_outcome(args, result, _):
            return {"attempts": result.attempts, "ok": result.ok}

        def pool_shape(args, _, __):
            return {"tasks": len(args[1]), "jobs": args[2]}

        def file_bytes(args, _, __):
            return {"bytes": args[0].path.stat().st_size}

        def case_outcome(args, payload, _):
            return {"divergences": len(payload["divergences"])}

        wrap = self.wrap
        wrap(Processor, "__init__", "core.build")
        wrap(Processor, "run", "core.run", after=core_stats)
        wrap(repro.machines, "simulate_ideal", "ideal.schedule", after=ideal_stats)
        wrap(repro.harness.spec, "annotate", "ideal.annotate")
        wrap(GoldenTrace, "__init__", "core.golden")
        wrap(repro.cfg.ReconvergenceTable, "__init__", "cfg.reconv")
        for owner, attr in (
            (repro.machines, "run_functional"),
            (repro.fuzz.oracle, "run_functional"),
            (repro.core.golden, "run"),
        ):
            wrap(owner, attr, "functional.run", after=steps)
        for owner in (repro.harness.cache, repro.harness.spec, repro.workloads):
            wrap(owner, "build_workload", "workloads.build")
        wrap(repro.harness.spec, "measure_prediction", "bpred.measure")
        wrap(
            repro.harness.cache.ArtifactCache,
            "artifacts",
            "harness.cache.lookup",
            before=cache_counts,
            after=cache_hit,
        )
        for owner in (repro.harness.experiments, repro.harness.spec):
            wrap(owner, "run_spec_row", "harness.spec.row", cell=row_cell)
        wrap(
            repro.harness.runner.CellRunner,
            "run_cell",
            "harness.runner.cell",
            cell=cell_key,
            after=cell_outcome,
        )
        wrap(repro.harness.tables, "format_experiment", "harness.tables.format")
        wrap(repro.harness.parallel, "map_resilient", "harness.parallel.pool",
             after=pool_shape)
        wrap(repro.harness.parallel, "_run_cell", "harness.parallel.cell",
             cell=row_cell)
        wrap(repro.harness.runner.CheckpointStore, "record", "harness.checkpoint.record")
        wrap(repro.harness.runner.CheckpointStore, "_flush", "harness.checkpoint.flush",
             after=file_bytes)
        wrap(repro.fuzz.campaign, "run_case", "fuzz.case",
             cell=lambda args: args[0], after=case_outcome)
        wrap(repro.fuzz.campaign, "run_oracle", "fuzz.oracle")
        wrap(repro.fuzz.oracle, "check_stats", "analysis.invariants")


# ----------------------------------------------------------------------
# Spans -> per-layer metrics


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the time its same-process children cover."""
    children: dict[tuple, list] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[(span["parent"], span["pid"])].append(
                (span["start"], span["end"])
            )
    return {
        span["id"]: span["end"]
        - span["start"]
        - _union_length(children.get((span["id"], span["pid"]), []))
        for span in spans
    }


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest whole percentile with at least
    ten samples beyond it, nearest-rank; (0, 0) when even the median
    lacks ten (fewer than 20 samples)."""
    n = len(values)
    pct = math.floor(100 * (1 - 10 / n)) if n else 0
    if pct < 50:
        return 0.0, 0.0
    ordered = sorted(values)
    return float(pct), ordered[max(0, math.ceil(pct / 100 * n) - 1)]


def median(values: list[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[dict], facts: dict) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` entry except ``trace.overhead_frac``.

    ``facts`` carries what the workload itself observed rather than a
    span: ``resumed`` and ``resume_mismatch_rows`` of a resume pass.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def self_s(name: str) -> float:
        return sum(selfs[s["id"]] for s in by_name[name])

    def total(name: str, key: str) -> float:
        return sum(s.get(key, 0) for s in by_name[name])

    def durations_ms(name: str) -> list[float]:
        return [1000 * (s["end"] - s["start"]) for s in by_name[name]]

    m: dict[str, float] = {}
    core_retired = total("core.run", "retired")
    core_cycles = total("core.run", "cycles")
    m["core.run_s"] = self_s("core.run")
    m["core.build_s"] = self_s("core.build")
    m["core.cells"] = len(by_name["core.run"])
    m["core.cycles"] = core_cycles
    m["core.retired"] = core_retired
    m["core.fetched"] = total("core.run", "fetched")
    m["core.useful_fetch_ratio"] = _ratio(core_retired, m["core.fetched"])
    m["core.issues"] = total("core.run", "issues")
    m["core.issues_per_retired"] = _ratio(m["core.issues"], core_retired)
    m["core.recoveries"] = total("core.run", "recoveries")
    m["core.reconverged_frac"] = _ratio(
        total("core.run", "reconverged"), m["core.recoveries"]
    )
    m["core.host_us_per_cycle"] = 1e6 * _ratio(m["core.run_s"], core_cycles)
    m["core.pool_claims"] = total("core.run", "pool_claims")
    for stage in _STAGES:
        m[f"core.stage_{stage}_cycles"] = total("core.run", f"stage_{stage}")

    ideal_cycles = total("ideal.schedule", "cycles")
    ideal_retired = total("ideal.schedule", "retired")
    m["ideal.schedule_s"] = self_s("ideal.schedule")
    m["ideal.cells"] = len(by_name["ideal.schedule"])
    m["ideal.cycles"] = ideal_cycles
    m["ideal.retired"] = ideal_retired
    m["ideal.host_ns_per_cycle"] = 1e9 * _ratio(m["ideal.schedule_s"], ideal_cycles)
    m["ideal.wrong_path_per_retired"] = _ratio(
        total("ideal.schedule", "wrong_path"), ideal_retired
    )
    m["ideal.annotate_s"] = self_s("ideal.annotate")
    m["core.golden_s"] = self_s("core.golden")
    m["cfg.reconv_s"] = self_s("cfg.reconv")
    m["functional.run_s"] = self_s("functional.run")
    m["functional.steps"] = total("functional.run", "steps")
    m["workloads.build_s"] = self_s("workloads.build")
    m["workloads.builds"] = len(by_name["workloads.build"])
    m["bpred.measure_s"] = self_s("bpred.measure")

    hits = defaultdict(int)
    for span in by_name["harness.cache.lookup"]:
        hits[span["hit"]] += 1
    m["harness.cache.lookup_s"] = self_s("harness.cache.lookup")
    m["harness.cache.memory_hits"] = hits["memory"]
    m["harness.cache.disk_hits"] = hits["disk"]
    m["harness.cache.misses"] = hits["miss"]
    m["harness.cache.hit_rate"] = _ratio(
        hits["memory"] + hits["disk"], len(by_name["harness.cache.lookup"])
    )

    m["harness.spec.row_self_s"] = self_s("harness.spec.row")
    m["harness.spec.rows"] = len(by_name["harness.spec.row"])
    cells = by_name["harness.runner.cell"]
    cell_ms = durations_ms("harness.runner.cell")
    m["harness.runner.cells"] = len(cells)
    m["harness.runner.attempts"] = total("harness.runner.cell", "attempts")
    m["harness.runner.failures"] = sum(1 for s in cells if not s["ok"])
    m["harness.runner.cell_p50_ms"] = median(cell_ms)
    pct, value = tail(cell_ms)
    m["harness.runner.cell_tail_pct"] = pct
    m["harness.runner.cell_tail_ms"] = value
    m["harness.tables.format_s"] = self_s("harness.tables.format")

    # Efficiency: serial cell time summed over the workers, over the
    # worker-seconds the pool held (jobs x pool wall clock).
    worker_cell_s = sum(s["end"] - s["start"] for s in by_name["harness.parallel.cell"])
    m["harness.parallel.pool_s"] = self_s("harness.parallel.pool")
    m["harness.parallel.tasks"] = total("harness.parallel.pool", "tasks")
    m["harness.parallel.efficiency"] = _ratio(
        worker_cell_s,
        sum(s["jobs"] * (s["end"] - s["start"]) for s in by_name["harness.parallel.pool"]),
    )
    m["harness.checkpoint.records"] = len(by_name["harness.checkpoint.record"])
    m["harness.checkpoint.record_s"] = self_s("harness.checkpoint.record") + self_s(
        "harness.checkpoint.flush"
    )
    m["harness.checkpoint.bytes"] = total("harness.checkpoint.flush", "bytes")
    m["harness.checkpoint.resumed"] = facts.get("resumed", 0)
    m["harness.checkpoint.resume_mismatch_rows"] = facts.get("resume_mismatch_rows", 0)

    case_ms = durations_ms("fuzz.case")
    m["fuzz.cases"] = len(case_ms)
    m["fuzz.case_p50_ms"] = median(case_ms)
    pct, value = tail(case_ms)
    m["fuzz.case_tail_pct"] = pct
    m["fuzz.case_tail_ms"] = value
    m["fuzz.oracle_self_s"] = self_s("fuzz.oracle")
    m["fuzz.divergences"] = total("fuzz.case", "divergences")
    m["analysis.invariants_s"] = self_s("analysis.invariants")
    m["trace.spans"] = len(spans)
    return m
