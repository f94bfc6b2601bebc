"""Parallel study scheduler: fan the experiment grid across processes.

The study grid (experiments × workloads) is embarrassingly parallel —
cells share nothing but the read-only workload artifacts and the
detailed cells several artifacts run alike.  This module dispatches the
pending part of the grid to a
:class:`concurrent.futures.ProcessPoolExecutor` in two waves:

* **wave 1, cells first** — one task per *distinct* memo-keyed detailed
  cell of the pending rows (:func:`~repro.harness.spec.plan_study_cells`),
  plus every row that keys no cell (Table 1, Figure 3), dispatched
  longest-first by the workload's golden-trace length (ties in plan
  order).  Each cell runs once under the study's ``timeout_seconds``,
  with no retries; every success seeds a parent-side cell memo, and a
  failure or a crashed worker is simply not stored.
* **wave 2, rows** — every remaining row, each task carrying the memo
  entries its own keys need.  A row whose cell is missing from the memo
  simulates it on the row path, with the usual retry and degradation.

So every distinct detailed cell simulates exactly once per study,
whichever worker draws it — the same count as the serial path — and
rows are byte-identical to the serial run's.  Every task, cell or row,
enters the worker through :func:`_run_cell`.

* **job count** — the ``jobs`` argument, else the ``REPRO_JOBS``
  environment variable, else 1; ``"auto"`` means the CPU count.
* **checkpoint integration** — cells already in the
  :class:`~repro.harness.runner.CheckpointStore` are satisfied *before*
  dispatch, so a resumed study only pays for unfinished rows and the
  detailed cells they need.  The parent process is the only checkpoint
  writer (workers return results; the parent records them), so no
  cross-process file locking is needed.
* **process-safe timeouts** — each worker enforces the per-cell budget
  inside its own process via
  :func:`~repro.harness.runner.call_with_timeout` (SIGALRM on the
  worker's own main thread, a thread-join deadline elsewhere).  No
  timer ever crosses a process boundary.
* **once-per-study tracing** — before dispatch the parent derives every
  workload's golden trace and reconvergence table into a disk-backed
  :class:`~repro.harness.cache.ArtifactCache` shared with the workers
  (a temporary directory unless ``cache_dir`` is given), so the
  expensive artifacts are derived exactly once per (program,
  history_bits) per study instead of once per cell per worker.

A ``batch=True`` study instead sends one fused shard per worker
(:func:`_run_shard`).  Results are assembled in the same deterministic
order as the serial path.
"""

from __future__ import annotations

import logging
import os
import tempfile
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence

from ..errors import ConfigError
from ..workloads import WORKLOAD_NAMES
from .batch import batch_enabled
from .runner import (
    Cell,
    CellResult,
    CellRunner,
    CheckpointStore,
    Deadline,
    RunnerConfig,
    call_with_timeout,
)

_log = logging.getLogger(__name__)


def resolve_jobs(jobs: int | str | None = None, env=os.environ) -> int:
    """Resolve a worker count from an argument or ``REPRO_JOBS``.

    Accepts a positive integer or ``"auto"`` (CPU count, clamped to 1 —
    i.e. serial — on a single-CPU host, where pool workers only add
    fork/pickle overhead).  Invalid values raise
    :class:`~repro.errors.ConfigError` naming the source.
    """
    source = "jobs"
    raw: Any = jobs
    if raw is None:
        source = "REPRO_JOBS"
        raw = env.get("REPRO_JOBS", "1")
    if isinstance(raw, str) and raw.strip().lower() == "auto":
        cpus = os.cpu_count() or 1
        if cpus <= 1:
            _log.info(
                "%s='auto' on a single-CPU host: clamping to serial "
                "(a process pool would add overhead without parallelism)",
                source,
            )
            return 1
        _log.info("%s='auto' resolved to %d workers", source, cpus)
        return cpus
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise ConfigError(
            f"{source}={raw!r} is not a job count; expected a positive "
            f"integer or 'auto'"
        )
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"{source}={raw!r} is not a job count; expected a positive "
            f"integer or 'auto'"
        ) from None
    if value < 1:
        raise ConfigError(f"{source}={raw!r} must be >= 1 (or 'auto')")
    return value


def _init_worker(cache_dir: str | None) -> None:
    """Point the worker's default artifact cache at the study's shared
    disk layer, so traces the parent pre-derived are loaded, not re-run."""
    if cache_dir:
        from .cache import configure_default_cache

        configure_default_cache(disk_dir=cache_dir)


def _run_cell(
    experiment: str,
    workload: str,
    knob_hash: str | None,
    scale: float,
    experiment_kwargs: dict,
    runner_knobs: dict,
    memo: dict | None = None,
    machine=None,
):
    """Execute one pool task inside a worker process.

    A row task returns a plain dict (picklable) mirroring
    :class:`~repro.harness.runner.CellResult`; it never raises for cell
    failures — the worker-side :class:`CellRunner` degrades them.  The
    row body is the same :func:`~repro.harness.spec.run_spec_row` the
    serial path runs, reading ``memo``, the cell-memo entries the parent
    shipped for this row, so rows are byte-identical.

    With ``machine`` (a :class:`~repro.harness.spec.MachineSpec`) the
    task is one wave-1 detailed cell of ``experiment``'s row instead: it
    simulates once under ``timeout_seconds``, with no retries, and
    returns ``{"status": "ok", "value": CoreStats}`` or the error's type
    and message (not the exception, which need not pickle).
    """
    from .spec import load_bundle, run_spec_row

    if machine is not None:
        try:
            bundle = load_bundle(workload, scale)
            stats = call_with_timeout(
                lambda: machine.resolve().simulate(
                    bundle, overrides=dict(machine.overrides)
                ),
                runner_knobs.get("timeout_seconds"),
            )
        except Exception as exc:
            return {"status": "error", "error": str(exc),
                    "error_type": type(exc).__name__}
        return {"status": "ok", "value": stats}
    cell = Cell(
        experiment=experiment, workload=workload, config_hash=knob_hash, scale=scale
    )
    runner = CellRunner(RunnerConfig(checkpoint_path=None, **runner_knobs))
    result = runner.run_cell(
        cell,
        lambda: run_spec_row(
            experiment, workload, scale=scale, memo=memo, **experiment_kwargs
        ).to_payload(),
    )
    return {
        "key": result.key,
        "status": result.status,
        "value": result.value,
        "error": result.error,
        "error_type": result.error_type,
        "attempts": result.attempts,
    }


def _run_shard(
    cell_specs: list,
    scale: float,
    experiment_kwargs: dict,
    runner_knobs: dict,
) -> list[dict]:
    """Execute one study shard inside a worker process, batch-fused.

    ``cell_specs`` is ``[(experiment, workload, knob_hash), ...]``.  The
    shard's distinct detailed cells are first pre-simulated into a
    shard-scoped cell memo through one fused, fault-isolated driver loop
    (:func:`~repro.harness.spec.prepare_study_batch` — one GC pause for
    the whole shard, workload bundles derived once each); every cell
    then runs through the same per-cell :class:`CellRunner` as
    :func:`_run_cell`, reading the memo.  The per-cell
    ``timeout_seconds`` therefore bounds only each cell's residual work
    — inside the fused loop a runaway cell is bounded by its own
    ``watchdog_cycles``/``max_cycles`` guards, and its failure degrades
    that cell alone.  A failed cell is not memoized, so every row that
    needs it simulates it again, on every retry, under the row's
    ``timeout_seconds``.  The memo lives for this shard only, so what a
    shard simulates never depends on which worker ran it.
    """
    from .spec import prepare_study_batch, run_spec_row

    memo: dict = {}
    prepare_study_batch(
        [(experiment, workload) for experiment, workload, _ in cell_specs],
        memo,
        scale=scale,
        experiment_kwargs=experiment_kwargs,
    )
    runner = CellRunner(RunnerConfig(checkpoint_path=None, **runner_knobs))
    results = []
    for experiment, workload, knob_hash in cell_specs:
        cell = Cell(
            experiment=experiment,
            workload=workload,
            config_hash=knob_hash,
            scale=scale,
        )
        result = runner.run_cell(
            cell,
            lambda exp=experiment, name=workload: run_spec_row(
                exp, name, scale=scale, memo=memo, **experiment_kwargs
            ).to_payload(),
        )
        results.append(
            {
                "key": result.key,
                "status": result.status,
                "value": result.value,
                "error": result.error,
                "error_type": result.error_type,
                "attempts": result.attempts,
            }
        )
    return results


# ----------------------------------------------------------------------
# Crash-resilient windowed dispatch


#: outcome tags yielded by :func:`map_resilient`
OUTCOME_OK = "ok"
OUTCOME_ERROR = "error"  # the task raised (picklable) inside the worker
OUTCOME_CRASHED = "crashed"  # its worker process died while it was in flight
OUTCOME_SKIPPED = "skipped"  # never dispatched: the deadline expired first


def map_resilient(
    fn: Callable,
    tasks: Sequence[tuple],
    jobs: int,
    *,
    initializer: Callable | None = None,
    initargs: tuple = (),
    deadline: Deadline | None = None,
    on_result: Callable[[int, tuple], None] | None = None,
) -> list[tuple]:
    """Run ``fn(*tasks[i])`` across a process pool, surviving worker death.

    An abrupt worker kill (OOM killer, segfaulting C extension, operator
    ``kill -9``) breaks a :class:`ProcessPoolExecutor` *permanently*:
    every queued future fails with :class:`BrokenProcessPool` and a naive
    ``as_completed`` loop loses the whole remaining study.  This helper
    instead:

    * **windows submissions** — at most ``2 * jobs`` tasks are in flight,
      so a pool breakage can only take down the tasks actually being
      executed, never the long tail still queued in the parent;
    * **classifies the blast radius** — in-flight tasks at the moment of
      breakage become ``("crashed", message)`` outcomes (the dead worker
      cannot tell us which of them killed it, so all are reported);
    * **resumes the rest** — a fresh pool is built and the remaining
      tasks continue as if nothing happened;
    * **honours a wall-clock budget** — with ``deadline``, tasks that
      were never dispatched when it expires become ``("skipped", ...)``
      outcomes, so a budgeted campaign ends cleanly and resumably.

    Returns one ``(tag, payload)`` outcome per task, in task order:
    ``("ok", value)``, ``("error", exception)``, ``("crashed", message)``
    or ``("skipped", message)``.  ``on_result`` is invoked as each
    outcome lands (in completion order) for incremental checkpointing.
    """
    outcomes: list[tuple | None] = [None] * len(tasks)
    pending: list[int] = list(range(len(tasks)))[::-1]  # pop() from the front

    def settle(index: int, outcome: tuple) -> None:
        outcomes[index] = outcome
        if on_result is not None:
            on_result(index, outcome)

    while pending:
        if deadline is not None and deadline.expired():
            while pending:
                settle(
                    pending.pop(),
                    (OUTCOME_SKIPPED, "wall-clock budget expired before dispatch"),
                )
            break
        pool = ProcessPoolExecutor(
            max_workers=min(jobs, len(pending)),
            initializer=initializer,
            initargs=initargs,
        )
        inflight: dict = {}
        broke = False
        try:
            while pending or inflight:
                while (
                    pending
                    and len(inflight) < 2 * jobs
                    and not (deadline is not None and deadline.expired())
                ):
                    index = pending.pop()
                    inflight[pool.submit(fn, *tasks[index])] = index
                if not inflight:
                    break  # deadline expired with nothing running
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                for future in done:
                    index = inflight.pop(future)
                    try:
                        settle(index, (OUTCOME_OK, future.result()))
                    except BrokenProcessPool as exc:
                        broke = True
                        settle(
                            index,
                            (
                                OUTCOME_CRASHED,
                                "worker process died abruptly while this task "
                                f"was in flight ({exc or 'BrokenProcessPool'})",
                            ),
                        )
                    except Exception as exc:
                        settle(index, (OUTCOME_ERROR, exc))
                if broke:
                    # Everything still in flight shared the broken pool.
                    for future, index in inflight.items():
                        settle(
                            index,
                            (
                                OUTCOME_CRASHED,
                                "worker process died abruptly while this task "
                                "was in flight (pool broken by a sibling crash)",
                            ),
                        )
                    inflight.clear()
                    _log.warning(
                        "process pool broke (worker killed?); restarting it "
                        "for the %d remaining task(s)",
                        len(pending),
                    )
                    break  # rebuild the pool for the remaining tasks
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
    return [outcome if outcome is not None else (OUTCOME_SKIPPED, "never ran")
            for outcome in outcomes]


def _prewarm_cache(cache, names, scale: float) -> dict:
    """Derive every workload's shared artifacts once, up front.

    Returns each workload's golden-trace length, the cells-first wave's
    deterministic cost proxy.  A bogus workload name must degrade as a
    per-cell error row (exactly as it does serially), not kill the study
    here — so derivation failures are swallowed (length 0) and left for
    the owning cells to report.
    """
    lengths = {}
    for name in names:
        try:
            lengths[name] = len(cache.artifacts(name, scale).golden)
        except Exception:
            lengths[name] = 0
    return lengths


def _degrade(cell: Cell, tag: str, payload) -> CellResult:
    """The error row of a task that crashed its worker or raised."""
    if tag == OUTCOME_CRASHED:
        return CellResult(
            key=cell.key,
            status="error",
            value=None,
            error=payload,
            error_type="WorkerCrash",
            attempts=1,
        )
    # "error": the worker raised / result was unpicklable
    return CellResult(
        key=cell.key,
        status="error",
        value=None,
        error=str(payload),
        error_type=type(payload).__name__,
        attempts=1,
    )


def _run_cells_first(
    pending: list,
    lengths: dict,
    scale: float,
    worker_kwargs: dict,
    runner_knobs: dict,
    jobs: int,
    cache_dir: str,
    settle: Callable[[CellResult], None],
) -> int:
    """Dispatch the ``pending`` rows in the two waves of the module
    docstring, wave 1 longest-first by the workloads' golden-trace
    ``lengths``; returns how many distinct detailed cells wave 1
    memoized.
    """
    from .spec import plan_study_cells

    row_keys = [
        plan_study_cells([(cell.experiment, cell.workload)], scale, worker_kwargs)
        for cell in pending
    ]
    plan: dict = {}
    for keys in row_keys:
        for key, planned in keys.items():
            plan.setdefault(key, planned)

    def row_task(cell: Cell, memo: dict | None) -> tuple:
        return (
            cell.experiment,
            cell.workload,
            cell.config_hash,
            cell.scale,
            worker_kwargs,
            runner_knobs,
            memo,
        )

    def settle_row(cell: Cell, outcome: tuple) -> None:
        tag, payload = outcome
        if tag == OUTCOME_OK:
            settle(CellResult(**payload))
        else:
            settle(_degrade(cell, tag, payload))

    def dispatch(tasks: list, on_result: Callable[[int, tuple], None]) -> None:
        if tasks:
            map_resilient(
                _run_cell,
                tasks,
                jobs,
                initializer=_init_worker,
                initargs=(cache_dir,),
                on_result=on_result,
            )

    # Wave 1: (cost, task, target), target a memo key or a keyless row.
    wave1 = [
        (
            lengths.get(p.workload, 0),
            (p.experiment, p.workload, None, p.scale, {}, runner_knobs, None,
             p.machine),
            key,
        )
        for key, p in plan.items()
    ] + [
        (lengths.get(cell.workload, 0), row_task(cell, None), cell)
        for cell, keys in zip(pending, row_keys)
        if not keys
    ]
    wave1.sort(key=lambda item: -item[0])  # stable: ties keep plan order
    memo: dict = {}

    def on_wave1(index: int, outcome: tuple) -> None:
        target = wave1[index][2]
        tag, payload = outcome
        if isinstance(target, Cell):
            settle_row(target, outcome)
        elif tag == OUTCOME_OK and payload["status"] == "ok":
            memo[target] = payload["value"]
        else:
            _log.debug("wave-1 cell %r not memoized: %r", target, payload)

    dispatch([task for _, task, _ in wave1], on_wave1)

    # Wave 2: every row that reads the memo, carrying its own entries.
    wave2 = [(cell, keys) for cell, keys in zip(pending, row_keys) if keys]
    dispatch(
        [row_task(cell, {k: memo[k] for k in keys if k in memo}) for cell, keys in wave2],
        lambda index, outcome: settle_row(wave2[index][0], outcome),
    )
    return len(memo)


def run_study_parallel(
    experiments=None,
    scale: float = 0.12,
    names=WORKLOAD_NAMES,
    checkpoint_path=None,
    jobs: int | str | None = None,
    cache_dir=None,
    timeout_seconds: float | None = None,
    max_attempts: int = 3,
    only=None,
    **experiment_kwargs,
) -> dict:
    """Parallel twin of :func:`repro.harness.experiments.run_study`.

    Same contract and same (byte-identical) rows; adds ``"jobs"`` and
    ``"wave1_cells"`` to the returned dict on every path.  ``wave1_cells``
    counts the cells deduplicated by the pool's wave 1: the distinct
    detailed cells it simulated into the study's memo.  It is 0 when no
    wave 1 ran — a serial study, a ``batch`` study (whose shards
    deduplicate into memos of their own) or a fully resumed one.
    When the job count resolves to 1 (explicitly, or ``"auto"`` on a
    single-CPU host) the grid runs through the in-process serial runner
    instead of a one-worker pool.  ``only`` restricts the grid to
    ``EXPERIMENT:WORKLOAD`` selectors for partial reruns.
    """
    from .cache import ArtifactCache
    from .experiments import (
        assemble_study,
        run_study,
        select_study_cells,
        study_cells,
        validate_experiments,
    )

    chosen = validate_experiments(experiments)
    n_jobs = resolve_jobs(jobs)
    if n_jobs == 1:
        _log.info(
            "study resolved to 1 job: running serially in-process "
            "(no pool dispatch)"
        )
        serial_runner = CellRunner(
            RunnerConfig(
                checkpoint_path=checkpoint_path,
                timeout_seconds=timeout_seconds,
                max_attempts=max_attempts,
            )
        )
        out = run_study(
            experiments=chosen,
            scale=scale,
            names=names,
            runner=serial_runner,
            only=only,
            **experiment_kwargs,
        )
        out["jobs"] = 1
        out["wave1_cells"] = 0
        return out
    store = CheckpointStore(checkpoint_path) if checkpoint_path is not None else None

    cells = select_study_cells(
        study_cells(chosen, names, scale, experiment_kwargs), only
    )
    if only is not None:
        chosen = [e for e in chosen if any(c.experiment == e for c in cells)]
    outcomes: dict[str, CellResult] = {}
    pending: list[Cell] = []
    for cell in cells:
        if store is not None and store.completed(cell.key):
            outcomes[cell.key] = CellResult(
                key=cell.key,
                status="ok",
                value=store.value(cell.key),
                attempts=0,
                resumed=True,
            )
        else:
            pending.append(cell)

    wave1_cells = 0
    if pending:
        runner_knobs = {
            "timeout_seconds": timeout_seconds,
            "max_attempts": max_attempts,
        }
        # A SpecProfile cannot aggregate across process boundaries (each
        # worker would record into its own pickled copy, silently thrown
        # away on return), so it is stripped from worker dispatch: under
        # the pool the parent's profile intentionally stays empty.
        worker_kwargs = {
            k: v for k, v in experiment_kwargs.items() if k != "profile"
        }
        try:
            study_batched = batch_enabled(experiment_kwargs.get("batch"))
        except ValueError:
            study_batched = False  # per-cell runs report the bad knob
        tmpdir = None
        shared_dir = cache_dir
        if shared_dir is None:
            tmpdir = tempfile.TemporaryDirectory(prefix="repro-study-cache-")
            shared_dir = tmpdir.name
        try:
            lengths = _prewarm_cache(
                ArtifactCache(disk_dir=shared_dir),
                dict.fromkeys(c.workload for c in pending),
                scale,
            )

            def settle(result: CellResult) -> None:
                if result.ok and store is not None:
                    store.record(result.key, result.value)
                outcomes[result.key] = result

            if study_batched:
                # Study-level batching: one task per worker shard, each
                # fusing all its detailed cells into a single driver
                # loop (see _run_shard).  Round-robin sharding keeps
                # per-shard load balanced across experiments.
                shards = [
                    shard
                    for shard in (pending[i::n_jobs] for i in range(n_jobs))
                    if shard
                ]
                tasks = [
                    (
                        [(c.experiment, c.workload, c.config_hash) for c in shard],
                        scale,
                        worker_kwargs,
                        runner_knobs,
                    )
                    for shard in shards
                ]

                def on_result(index: int, outcome: tuple) -> None:
                    tag, payload = outcome
                    if tag == OUTCOME_OK:
                        for item in payload:
                            settle(CellResult(**item))
                    else:
                        # The whole shard shared the dead/broken worker.
                        for cell in shards[index]:
                            settle(_degrade(cell, tag, payload))

                map_resilient(
                    _run_shard,
                    tasks,
                    n_jobs,
                    initializer=_init_worker,
                    initargs=(str(shared_dir),),
                    on_result=on_result,
                )
            else:
                wave1_cells = _run_cells_first(
                    pending, lengths, scale, worker_kwargs, runner_knobs,
                    n_jobs, str(shared_dir), settle,
                )
        finally:
            if tmpdir is not None:
                tmpdir.cleanup()

    out = assemble_study(chosen, cells, outcomes)
    out["jobs"] = n_jobs
    out["wave1_cells"] = wave1_cells
    return out


__all__ = ["map_resilient", "resolve_jobs", "run_study_parallel"]
