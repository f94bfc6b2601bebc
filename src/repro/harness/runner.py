"""Fault-isolated cell execution: retry, timeout and checkpoint resume.

The paper's evaluation is a large cross-product of machines × knobs ×
workloads.  Running it as one in-process loop means a single hung or
crashing (experiment, workload, config) cell kills the whole study and
loses every completed result.  Studies
(:func:`repro.harness.experiments.run_study`) and fuzz campaigns
(:func:`repro.fuzz.campaign.run_campaign`) both execute their cells
through this module:

* :class:`CellRunner` runs one cell with a **per-cell wall-clock
  timeout** (a hung simulation becomes a
  :class:`~repro.errors.CellTimeout` for that cell only), **bounded
  retry** of the :data:`RETRYABLE` failures with a doubling backoff
  from :data:`BACKOFF_SECONDS` (deterministic failures are not
  retried), and **graceful degradation** (a permanently failing cell
  becomes an error-annotated :class:`CellResult`, never a crash);
* :func:`run_keyed` is the one executor around it: it resumes the keys
  a JSON :class:`CheckpointStore` already holds, hands the rest to the
  caller's serial loop or process pool, records every success and
  flushes the store even when the run is interrupted.

Checkpointed values round-trip through JSON, so cell functions must
return JSON-serialisable data (the spec engine's
:meth:`~repro.harness.spec.CellRow.to_payload` dicts are; note JSON
turns integer dict keys into strings).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from ..errors import CellTimeout, CheckpointError, ConfigError

#: Version 1 stored each experiment runner's raw return value
#: (``{workload: data}`` dicts / one-row lists).  Version 2 stores the
#: uniform ``CellRow`` payload (``{"experiment", "workload", "data"}``)
#: produced by :func:`repro.harness.spec.run_spec_row`.  Old checkpoint
#: files are rejected with a :class:`~repro.errors.CheckpointError`
#: telling the user to delete them; cells then re-run from scratch.
CHECKPOINT_VERSION = 2


def _canonical(value: Any) -> Any:
    """Reduce a config-ish value to a deterministic, hashable structure.

    Every container and converted value carries an explicit type tag so
    distinct inputs cannot canonicalize to the same structure: without
    the tags, ``{1: x}`` and ``{"1": x}`` collided through ``str(key)``,
    an enum collided with the string of its rendered name, and a
    dataclass collided with a handwritten tuple of its fields.  Mixed
    element/key types sort by the ``repr`` of their canonical form, so
    heterogeneous sets and dicts stay deterministic without comparing
    unlike types.
    """
    if isinstance(value, enum.Enum):
        return ("enum", type(value).__name__, value.name)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            "dataclass",
            type(value).__name__,
            tuple(
                (f.name, _canonical(getattr(value, f.name)))
                for f in dataclasses.fields(value)
            ),
        )
    if isinstance(value, dict):
        return (
            "dict",
            tuple(
                sorted(
                    ((_canonical(k), _canonical(v)) for k, v in value.items()),
                    key=repr,
                )
            ),
        )
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(_canonical(v) for v in value))
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted((_canonical(v) for v in value), key=repr)))
    return value


def config_hash(config: Any) -> str:
    """Stable short hash of a configuration (dataclass, dict, tuple...)."""
    return hashlib.sha256(repr(_canonical(config)).encode()).hexdigest()[:12]


@dataclass(frozen=True)
class Cell:
    """One unit of a study: an experiment on one workload at one config."""

    experiment: str
    workload: str
    config_hash: str
    scale: float

    @property
    def key(self) -> str:
        return f"{self.experiment}/{self.workload}/{self.config_hash}/{self.scale}"


@dataclass
class CellResult:
    """Outcome of one cell: a value, or an error annotation — never a crash."""

    key: str
    status: str  # "ok" | "error"
    value: Any = None
    error: str | None = None
    error_type: str | None = None
    attempts: int = 0
    resumed: bool = False  # satisfied from the checkpoint store

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def as_row(self) -> Any:
        """The cell's value, or an error-annotated dict for failed cells."""
        if self.ok:
            return self.value
        return {
            "error": self.error,
            "error_type": self.error_type,
            "attempts": self.attempts,
        }


#: first retry delay in seconds; it doubles for every further attempt
BACKOFF_SECONDS = 0.5

#: exception types worth retrying; anything else degrades immediately
RETRYABLE = (CellTimeout,)


class CheckpointStore:
    """JSON store of completed cell results, written atomically.

    Only successful cells are recorded, so failed cells are retried on
    resume while finished ones are never re-simulated.

    ``flush_every`` batches disk writes: the store rewrites the file
    once per N recorded results (and always on :meth:`flush`).  The
    default of 1 keeps the historical write-per-record durability; the
    fuzz campaign raises it so a thousand sub-second cases do not turn
    into a thousand rewrites of a growing JSON file.  :func:`run_keyed`
    flushes on the way out, even when interrupted, so only a hard kill
    loses results: at most the last ``flush_every - 1``, which simply
    re-run on resume.
    """

    def __init__(self, path: str | Path, flush_every: int = 1):
        if flush_every < 1:
            raise CheckpointError(
                f"flush_every must be >= 1, got {flush_every!r}"
            )
        self.path = Path(path)
        self.flush_every = flush_every
        self._unflushed = 0
        self._results: dict[str, Any] = {}
        if self.path.exists():
            try:
                payload = json.loads(self.path.read_text())
            except (OSError, ValueError) as exc:
                raise CheckpointError(
                    f"checkpoint file {self.path} is unreadable or corrupt "
                    f"({exc}); delete it to start the study from scratch"
                ) from exc
            if (
                not isinstance(payload, dict)
                or payload.get("version") != CHECKPOINT_VERSION
                or not isinstance(payload.get("results"), dict)
            ):
                raise CheckpointError(
                    f"checkpoint file {self.path} has an unexpected layout "
                    f"(expected version {CHECKPOINT_VERSION}); delete it to "
                    "start the study from scratch"
                )
            self._results = payload["results"]

    def __len__(self) -> int:
        return len(self._results)

    def completed(self, key: str) -> bool:
        return key in self._results

    def value(self, key: str) -> Any:
        return self._results[key]

    def record(self, key: str, value: Any) -> None:
        # Round-trip through JSON now so a non-serialisable value fails
        # loudly at record time, not silently at resume time.
        try:
            self._results[key] = json.loads(json.dumps(value))
        except (TypeError, ValueError) as exc:
            raise CheckpointError(
                f"cell {key!r} returned a non-JSON-serialisable value "
                f"({exc}); checkpointed cells must return plain data"
            ) from exc
        self._unflushed += 1
        if self._unflushed >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Write any batched results to disk now (idempotent)."""
        if self._unflushed:
            self._flush()
            self._unflushed = 0

    def _flush(self) -> None:
        payload = {"version": CHECKPOINT_VERSION, "results": self._results}
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            tmp.write_text(json.dumps(payload, sort_keys=True))
            os.replace(tmp, self.path)
        except OSError as exc:
            raise CheckpointError(
                f"could not write checkpoint {self.path}: {exc}"
            ) from exc


@dataclass(frozen=True)
class Deadline:
    """A wall-clock budget expressed as an absolute monotonic instant.

    The campaign's budget: :func:`~repro.harness.parallel.map_resilient`
    and the serial loop stop dispatching once it has expired.
    """

    expires_at: float | None  # time.monotonic() instant; None = unbounded

    @classmethod
    def after(cls, seconds: float | None) -> "Deadline":
        if not seconds:
            return cls(expires_at=None)
        return cls(expires_at=time.monotonic() + seconds)

    def expired(self) -> bool:
        return self.expires_at is not None and time.monotonic() >= self.expires_at


class _SigalrmUnavailable(Exception):
    """SIGALRM could not be installed from this thread (internal marker)."""


def _call_with_sigalrm(fn: Callable[[], Any], timeout_seconds: float) -> Any:
    def _alarm(signum, frame):
        raise CellTimeout(f"cell exceeded its {timeout_seconds}s wall-clock budget")

    try:
        previous = signal.signal(signal.SIGALRM, _alarm)
    except ValueError as exc:  # not the main thread after all
        raise _SigalrmUnavailable(str(exc)) from exc
    signal.setitimer(signal.ITIMER_REAL, timeout_seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _call_with_thread_deadline(fn: Callable[[], Any], timeout_seconds: float) -> Any:
    """Enforce a wall-clock budget without signals.

    Runs ``fn`` on a helper thread and joins it with a timeout.  On
    expiry the caller gets a :class:`~repro.errors.CellTimeout`; the
    abandoned helper is a daemon thread, so a truly hung cell cannot
    keep the process alive at exit.
    """
    outcome: list = []

    def _target() -> None:
        try:
            outcome.append(("ok", fn()))
        except BaseException as exc:  # propagated to the caller below
            outcome.append(("err", exc))

    worker = threading.Thread(target=_target, daemon=True)
    worker.start()
    worker.join(timeout_seconds)
    if worker.is_alive():
        raise CellTimeout(
            f"cell exceeded its {timeout_seconds}s wall-clock budget "
            "(deadline enforced off the main thread; the runaway worker "
            "thread was abandoned)"
        )
    status, payload = outcome[0]
    if status == "err":
        raise payload
    return payload


def call_with_timeout(fn: Callable[[], Any], timeout_seconds: float | None) -> Any:
    """Run ``fn`` under a wall-clock budget, whatever thread we are on.

    On the main thread of a process with ``SIGALRM`` the budget is a
    real interrupt (it stops a hung pure-Python loop mid-flight).  Off
    the main thread — pytest-xdist workers, user threads — it degrades
    to a thread-join deadline instead of raising ``ValueError`` from
    ``signal.signal`` or silently dropping the guard.  Pool workers in
    ``repro.harness.parallel`` take the SIGALRM path: each worker
    process owns its main thread, so per-cell timers never cross
    process boundaries.
    """
    if not timeout_seconds:
        return fn()
    if (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    ):
        try:
            return _call_with_sigalrm(fn, timeout_seconds)
        except _SigalrmUnavailable:
            # Lost the main-thread race (e.g. an embedded interpreter
            # re-homed the thread): fall through to the portable guard.
            pass
    return _call_with_thread_deadline(fn, timeout_seconds)


class CellRunner:
    """Executes cells with timeout, retry/backoff and degradation.

    ``timeout_seconds`` bounds each attempt's wall clock (None: no
    bound), ``max_attempts`` caps the tries of a :data:`RETRYABLE`
    failure, and ``sleep`` waits out the backoff (tests pass a
    recorder).
    """

    def __init__(
        self,
        timeout_seconds: float | None = None,
        max_attempts: int = 3,
        sleep: Callable[[float], Any] = time.sleep,
    ):
        if timeout_seconds is not None and timeout_seconds <= 0:
            raise ConfigError(
                f"timeout_seconds must be positive or None, got {timeout_seconds!r}"
            )
        if max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {max_attempts!r}")
        self.timeout_seconds = timeout_seconds
        self.max_attempts = max_attempts
        self._sleep = sleep

    def run_cell(self, cell: Cell | str, fn: Callable[[], Any]) -> CellResult:
        """Run one cell to a :class:`CellResult`; never raises for cell
        failures."""
        key = cell.key if isinstance(cell, Cell) else cell
        delay = BACKOFF_SECONDS
        failure: BaseException | None = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                value = call_with_timeout(fn, self.timeout_seconds)
            except RETRYABLE as exc:
                failure = exc
                if attempt < self.max_attempts:
                    self._sleep(delay)
                    delay *= 2
                continue
            except Exception as exc:  # deterministic failure: no retry
                failure = exc
                break
            return CellResult(key=key, status="ok", value=value, attempts=attempt)
        return CellResult(
            key=key,
            status="error",
            error=str(failure),
            error_type=type(failure).__name__,
            attempts=attempt,
        )


def run_keyed(
    keys: list[str],
    store: CheckpointStore | None,
    run_pending: Callable[[list[int], Callable[[CellResult], None]], Any],
) -> dict[str, CellResult]:
    """Run the cells named by ``keys``, resuming what ``store`` holds.

    A key the store has completed becomes a resumed result without
    running.  ``run_pending(indices, settle)`` runs the rest — the
    positions in ``keys`` of the unfinished cells — and hands each
    cell's :class:`CellResult` to ``settle`` as it lands; ``settle``
    records every success in the store, so failed cells re-run on
    resume.  The store is flushed even if ``run_pending`` is
    interrupted, so no settled result is lost.  Returns every key's
    result.
    """
    outcomes: dict[str, CellResult] = {}
    pending: list[int] = []
    for index, key in enumerate(keys):
        if store is not None and store.completed(key):
            outcomes[key] = CellResult(
                key=key, status="ok", value=store.value(key), resumed=True
            )
        else:
            pending.append(index)

    def settle(result: CellResult) -> None:
        if result.ok and store is not None:
            store.record(result.key, result.value)
        outcomes[result.key] = result

    try:
        if pending:
            run_pending(pending, settle)
    finally:
        if store is not None:
            store.flush()
    return outcomes


__all__ = [
    "BACKOFF_SECONDS",
    "RETRYABLE",
    "Cell",
    "CellRunner",
    "CellResult",
    "CheckpointStore",
    "Deadline",
    "call_with_timeout",
    "config_hash",
    "run_keyed",
]
