"""Array-batched driver for independent detailed-machine cells.

The detailed :class:`~repro.core.processor.Processor` exposes a
resumable cycle loop (``start()``/``step()``/``finish()``);
:func:`run_batch` drives several *independent* machines — same family,
different workloads or configurations — through one Python-level loop,
advancing each by one cycle per round.  Round-robin interleaving does
not change any machine's result: processors share no mutable state, so
the statistics of a batched run are byte-identical to running each
machine serially (the golden equivalence suite enforces this).

What batching buys is driver-level, not semantic: one shared loop frame
amortizes per-run overhead, and the garbage collector is paused for the
whole batch instead of churning through every machine's allocation
bursts (each processor preallocates its columnar ``InstrPool`` up
front and then mutates in place, so pauses are cheap and collections
mid-run are pure overhead).

``batch_enabled`` resolves the ``batch=`` knob threaded through
:func:`repro.harness.spec.run_spec` / ``run_study`` against the
``REPRO_BATCH`` environment variable.
"""

from __future__ import annotations

import gc
import os

_TRUE = frozenset(("1", "true", "on", "yes"))
_FALSE = frozenset(("", "0", "false", "off", "no"))


def batch_enabled(batch: bool | None = None) -> bool:
    """Resolve a ``batch=`` knob: explicit argument wins, else the
    ``REPRO_BATCH`` environment variable, else off."""
    if batch is not None:
        return bool(batch)
    raw = os.environ.get("REPRO_BATCH", "").strip().lower()
    if raw in _TRUE:
        return True
    if raw in _FALSE:
        return False
    raise ValueError(
        f"REPRO_BATCH={raw!r} not understood; use one of "
        f"{sorted(_TRUE)} or {sorted(_FALSE)}"
    )


def run_batch(processors):
    """Step independent processors round-robin to completion.

    Returns each machine's sealed :class:`~repro.core.stats.CoreStats`
    in input order.  Exceptions (hangs, sanitizer faults) propagate
    exactly as they would from a serial ``run()`` — the batch stops at
    the first failure, matching ``run_spec``'s serial cell semantics —
    and the collector is always restored.
    """
    procs = list(processors)
    for proc in procs:
        proc.start()
    active = procs
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        while active:
            active = [proc for proc in active if proc.step()]
    finally:
        if gc_was_enabled:
            gc.enable()
    return [proc.finish() for proc in procs]


def run_batch_isolated(processors):
    """Step independent processors round-robin with per-machine fault
    isolation — the study-level batching driver.

    Where :func:`run_batch` matches serial cell semantics (first failure
    aborts the row), a *study*-wide batch interleaves cells of many
    experiments, so one hung or crashing cell must not take down the
    shard: a processor whose ``start``/``step``/``finish`` raises is
    dropped from the rotation and its exception captured, while every
    other machine runs to completion.  Each processor's own
    ``watchdog_cycles``/``max_cycles`` guards bound a runaway cell
    inside the fused loop.

    Returns one ``("ok", stats)`` or ``("error", exception)`` outcome
    per processor, in input order.  The collector is paused for the
    whole shard and always restored.
    """
    procs = list(processors)
    outcomes: list[tuple | None] = [None] * len(procs)
    active = []
    for i, proc in enumerate(procs):
        try:
            proc.start()
        except Exception as exc:
            outcomes[i] = ("error", exc)
        else:
            active.append((i, proc))
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        while active:
            still = []
            for i, proc in active:
                try:
                    more = proc.step()
                except Exception as exc:
                    outcomes[i] = ("error", exc)
                else:
                    if more:
                        still.append((i, proc))
            active = still
    finally:
        if gc_was_enabled:
            gc.enable()
    for i, proc in enumerate(procs):
        if outcomes[i] is None:
            try:
                outcomes[i] = ("ok", proc.finish())
            except Exception as exc:
                outcomes[i] = ("error", exc)
    return outcomes


__all__ = ["batch_enabled", "run_batch", "run_batch_isolated"]
