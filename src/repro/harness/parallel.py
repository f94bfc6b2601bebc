"""Process-pool dispatch for studies and fuzz campaigns.

:func:`map_resilient` runs pool tasks that survive worker death, and
:func:`outcome_result` turns each of its outcomes into a
:class:`~repro.harness.runner.CellResult` row: every pool task returns
its own ``CellResult``, and a task that raised, crashed its worker or
was never dispatched becomes an error row.  The fuzz campaign
(:func:`repro.fuzz.campaign.run_campaign`) dispatches its cases through
these two directly; the rest of this module is the study's pool.

The study grid (experiments × workloads) is embarrassingly parallel —
cells share nothing but the read-only workload artifacts and the
detailed cells several artifacts run alike.  With ``jobs`` > 1,
:func:`repro.harness.experiments.run_study` hands the pending part of
the grid to :func:`run_pool`, which only fills the study's cell memo.
It makes one :func:`map_resilient` pass over a
:class:`concurrent.futures.ProcessPoolExecutor`: one task per *distinct*
memo-keyed detailed cell of the pending rows
(:func:`~repro.harness.spec.plan_study_cells`), plus every row that keys
no cell (Table 1, Figure 3, Figure 10's TFR row), dispatched
longest-first by the workload's golden-trace length (ties in plan
order).  Each cell runs once under the study's ``timeout_seconds``, with
no retries; a success is stored in the memo the parent returns, and a
failure or a crashed worker is simply not stored.  Keyless rows settle
as they land.  Every task enters the worker through :func:`_run_cell`.

``run_study`` then folds every remaining row in the parent, through the
same loop and memo as a serial study: a row whose cells are all in the
memo reads copies of their stats (and loads no workload artifacts), and
a row whose cell is missing simulates it there, with the usual retry and
degradation, and memoizes it.  So every distinct detailed cell simulates
exactly once per study, whichever worker draws it — the same count as
the serial path — and rows are byte-identical to the serial run's.

* **job count** — the ``jobs`` argument, else the ``REPRO_JOBS``
  environment variable, else 1; ``"auto"`` means the CPU count.
* **checkpoint integration** — ``run_study`` satisfies checkpointed
  cells *before* dispatch (:func:`~repro.harness.runner.run_keyed`), so
  a resumed study only pays for unfinished rows and the detailed cells
  they need.  The parent process is the only checkpoint writer
  (workers return results; the parent records them), so no
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

Results are assembled in the same deterministic order as the serial
path.
"""

from __future__ import annotations

import logging
import os
import tempfile
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence

from ..errors import ConfigError
from .runner import Cell, CellResult, CellRunner, Deadline, call_with_timeout

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
    timeout_seconds: float | None,
    machine=None,
) -> CellResult:
    """Execute one pool task inside a worker process.

    With ``machine`` (a :class:`~repro.harness.spec.MachineSpec`) the
    task is one distinct detailed cell of ``experiment``'s row: it
    simulates once under ``timeout_seconds``, with no retries, and its
    value is the :class:`~repro.core.CoreStats` (a failure carries the
    error's type and message, not the exception, which need not pickle).

    Without it the task is a keyless row, run by the same
    :func:`~repro.harness.spec.run_spec_row` as the serial path; the
    worker-side :class:`CellRunner` degrades its failures, so it never
    raises.
    """
    from .spec import load_bundle, run_spec_row

    cell = Cell(
        experiment=experiment, workload=workload, config_hash=knob_hash, scale=scale
    )
    if machine is not None:
        try:
            bundle = load_bundle(workload, scale)
            stats = call_with_timeout(
                lambda: machine.resolve().simulate(
                    bundle, overrides=dict(machine.overrides)
                ),
                timeout_seconds,
            )
        except Exception as exc:
            return CellResult(key=cell.key, status="error", error=str(exc),
                              error_type=type(exc).__name__, attempts=1)
        return CellResult(key=cell.key, status="ok", value=stats, attempts=1)
    return CellRunner(timeout_seconds).run_cell(
        cell, lambda: run_spec_row(experiment, workload, scale=scale).to_payload()
    )


# ----------------------------------------------------------------------
# Crash-resilient windowed dispatch


#: outcome tags yielded by :func:`map_resilient`
OUTCOME_OK = "ok"
OUTCOME_ERROR = "error"  # the task raised (picklable) inside the worker
OUTCOME_CRASHED = "crashed"  # its worker process died while it was in flight
OUTCOME_SKIPPED = "skipped"  # never dispatched: the deadline expired first

#: the message of a task the deadline kept from dispatch
BUDGET_EXPIRED = "wall-clock budget expired before dispatch"


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
                settle(pending.pop(), (OUTCOME_SKIPPED, BUDGET_EXPIRED))
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

    Returns each workload's golden-trace length, the pool pass's
    deterministic cost proxy.  ``run_study`` has already rejected bad
    names and scales, so only a derivation failure (a golden trace past
    its step budget raises ``ExecutionLimitExceeded``) reaches the
    ``except``: it is swallowed (length 0) and left for the owning cells
    to report as error rows, exactly as the serial path reports it.
    """
    lengths = {}
    for name in names:
        try:
            lengths[name] = len(cache.artifacts(name, scale).golden)
        except Exception:
            lengths[name] = 0
    return lengths


def outcome_result(key: str, outcome: tuple) -> CellResult:
    """The row of one :func:`map_resilient` outcome for the task ``key``.

    An ``ok`` outcome carries the task's own :class:`CellResult`.  A
    task that raised (or returned something unpicklable) becomes an
    error row named after the exception, one whose worker died a
    ``WorkerCrash`` row, and one never dispatched a ``BudgetExpired``
    row with no attempts.
    """
    tag, payload = outcome
    if tag == OUTCOME_OK:
        return payload
    if tag == OUTCOME_ERROR:
        return CellResult(key=key, status="error", error=str(payload),
                          error_type=type(payload).__name__, attempts=1)
    if tag == OUTCOME_CRASHED:
        return CellResult(key=key, status="error", error=payload,
                          error_type="WorkerCrash", attempts=1)
    return CellResult(key=key, status="error", error=payload,
                      error_type="BudgetExpired", attempts=0)


def run_pool(
    pending: list,
    scale: float,
    timeout_seconds: float | None,
    jobs: int,
    cache_dir,
    settle: Callable[[CellResult], None],
) -> dict:
    """Fill a study's cell memo on a ``jobs``-worker pool.

    The parent first derives every pending workload's artifacts into the
    shared disk cache (``cache_dir``, else a temporary directory removed
    afterwards), then makes the one pass of the module docstring.  Each
    keyless row's :class:`~repro.harness.runner.CellResult` goes to
    ``settle`` as it lands.  Returns the memo, ``{memo_key: CoreStats}``.
    """
    from .cache import ArtifactCache
    from .spec import plan_study_cells

    tmpdir = None
    if cache_dir is None:
        tmpdir = tempfile.TemporaryDirectory(prefix="repro-study-cache-")
        cache_dir = tmpdir.name
    try:
        lengths = _prewarm_cache(
            ArtifactCache(disk_dir=cache_dir),
            dict.fromkeys(c.workload for c in pending),
            scale,
        )
        # (cost, task, target): target a memo key or a keyless row.
        tasks = [
            (lengths.get(p.workload, 0),
             (p.experiment, p.workload, None, scale, timeout_seconds, p.machine),
             key)
            for key, p in plan_study_cells(
                [(cell.experiment, cell.workload) for cell in pending], scale
            ).items()
        ] + [
            (lengths.get(cell.workload, 0),
             (cell.experiment, cell.workload, cell.config_hash, scale,
              timeout_seconds),
             cell)
            for cell in pending
            if not plan_study_cells([(cell.experiment, cell.workload)], scale)
        ]
        tasks.sort(key=lambda item: -item[0])  # stable: ties keep plan order
        memo: dict = {}

        def on_result(index: int, outcome: tuple) -> None:
            target = tasks[index][2]
            if isinstance(target, Cell):
                settle(outcome_result(target.key, outcome))
                return
            result = outcome_result(str(target), outcome)
            if result.ok:
                memo[target] = result.value
            else:
                _log.debug("pooled cell %r not memoized: %s", target, result.error)

        map_resilient(
            _run_cell,
            [task for _, task, _ in tasks],
            jobs,
            initializer=_init_worker,
            initargs=(str(cache_dir),),
            on_result=on_result,
        )
        return memo
    finally:
        if tmpdir is not None:
            tmpdir.cleanup()


__all__ = ["map_resilient", "outcome_result", "resolve_jobs", "run_pool"]
