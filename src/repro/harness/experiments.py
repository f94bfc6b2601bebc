"""The fault-isolated study: experiments × workloads, one row per cell.

:func:`run_study` runs a cross-product of registered experiments
(:mod:`repro.harness.specs`) × workloads, one
:func:`~repro.harness.spec.run_spec_row` per (experiment, workload)
cell, with per-cell timeout, retry, checkpoint resume and optional
process fan-out (:mod:`repro.harness.parallel`).  A single artifact is
:func:`~repro.harness.spec.run_spec`; a derived view over computed
rows is :func:`~repro.harness.spec.derive`.
"""

from __future__ import annotations

from ..errors import ConfigError
from ..machines import HEURISTIC_POLICIES
from ..workloads import WORKLOAD_NAMES, check_workload
from .spec import (
    CellRow,
    WorkloadBundle,
    load_bundle,
    run_spec_row,
    runnable_experiments,
)
from .specs import COMPLETION_CONFIGS, DETAILED_WINDOWS, IDEAL_WINDOWS

__all__ = [
    "COMPLETION_CONFIGS",
    "DETAILED_WINDOWS",
    "HEURISTIC_POLICIES",
    "IDEAL_WINDOWS",
    "WorkloadBundle",
    "assemble_study",
    "load_bundle",
    "run_study",
    "study_cells",
    "validate_experiments",
]


def validate_experiments(experiments=None) -> list:
    """Resolve an experiment selection against the spec registry.

    A single string names one experiment (``"table2"``), not a sequence
    of one-character names; a repeated name is kept once, in first-seen
    order.
    """
    runnable = runnable_experiments()
    if isinstance(experiments, str):
        experiments = [experiments]
    elif experiments is None:
        experiments = runnable
    chosen = list(dict.fromkeys(experiments))
    unknown = [e for e in chosen if e not in runnable]
    if unknown:
        raise ConfigError(
            f"unknown experiments {unknown!r}; choose from {sorted(runnable)}"
        )
    return chosen


def study_cells(chosen, names, scale: float):
    """Enumerate the study grid as Cells, in deterministic order.

    Serial and pooled execution share this enumeration, so a checkpoint
    written by one is resumable by the other.
    """
    from .runner import Cell, config_hash

    cells = []
    for exp in chosen:
        knob_hash = config_hash({"experiment": exp})
        for name in names:
            cells.append(
                Cell(experiment=exp, workload=name, config_hash=knob_hash, scale=scale)
            )
    return cells


def assemble_study(chosen, cells, outcomes) -> dict:
    """Fold per-cell outcomes into the study result payload.

    The serial and parallel paths share this assembly, so both produce
    byte-identical rows: successful cells carry a
    :class:`~repro.harness.spec.CellRow` payload whose ``data`` becomes
    the row, failed cells degrade to their error annotation.
    """
    results: dict = {exp: {} for exp in chosen}
    failures: list = []
    resumed = 0
    for cell in cells:
        result = outcomes[cell.key]
        resumed += result.resumed
        if result.ok:
            row = CellRow.from_payload(result.value).data
        else:
            failures.append(result)
            row = result.as_row()
        results[cell.experiment][cell.workload] = row
    return {"results": results, "failures": failures, "resumed": resumed}


def run_study(
    experiments=None,
    scale: float = 0.12,
    names=WORKLOAD_NAMES,
    checkpoint_path=None,
    jobs: "int | str | None" = None,
    cache_dir=None,
    timeout_seconds: float | None = None,
) -> dict:
    """Run a cross-product of experiments × workloads fault-isolated.

    Each (experiment, workload) pair runs as one
    :func:`~repro.harness.spec.run_spec_row` cell: a crash or hang in
    one cell becomes an error-annotated row instead of killing the
    study, and — when ``checkpoint_path`` is given — completed cells are
    recorded and skipped on resume after an interruption.  ``names`` is
    a sequence of workloads or one bare workload name; repeated
    experiments or workloads run once, in first-seen order.  The study
    is narrowed only by ``experiments`` × ``names``.  Every argument is
    checked before any cell runs: an unknown experiment or a bad
    ``jobs`` or ``timeout_seconds`` raises
    :class:`~repro.errors.ConfigError`, and an unknown workload name or
    a bad ``scale`` raises :class:`~repro.errors.WorkloadError`.

    ``jobs`` (default: the ``REPRO_JOBS`` env var, else 1; ``"auto"`` =
    CPU count) fans the pending cells across worker processes via
    :func:`repro.harness.parallel.run_pool`, sharing artifacts through
    ``cache_dir`` (else a temporary directory); results are
    byte-identical to the serial run.

    Each distinct detailed cell simulates once per study: the study
    owns one cell memo (:func:`~repro.harness.spec.memo_key`), so e.g.
    the window-256 ``CI`` machine that Figure 5, Tables 2-4 and Figures
    8-17 all run is simulated once per workload and the other rows read
    a copy of its stats.  Failed cells are never memoized, TFR cells
    always simulate, and two ``run_study`` calls never share results.
    Under ``jobs`` the pool only fills that memo: one pass simulates each
    distinct detailed cell of the pending rows once (no retries) and runs
    the rows that key no cell, then the parent folds every other row
    through the serial loop, so the simulated-cell count and the rows
    equal the serial path's whichever worker draws which task.  A cell
    that failed on the pool is simulated by the first row that needs it,
    with the usual retries, and memoized on success.

    Returns ``{"results": {experiment: {workload: row-or-error}},
    "failures": [CellResult...], "resumed": int, "jobs": int,
    "wave1_cells": int}``; ``wave1_cells`` counts the distinct detailed
    cells the pool simulated, 0 when no pool ran.
    """
    from .parallel import resolve_jobs, run_pool
    from .runner import CellRunner, CheckpointStore, run_keyed

    # 1. Validate every argument before any cell runs.  A repeated
    #    experiment or workload is one row, not several runs of it
    #    (validate_experiments drops repeated experiments).
    chosen = validate_experiments(experiments)
    if isinstance(names, str):
        names = (names,)
    names = tuple(dict.fromkeys(names))
    runner = CellRunner(timeout_seconds)
    n_jobs = resolve_jobs(jobs)
    for name in names:
        check_workload(name, scale)

    # 2. Enumerate the grid.
    cells = study_cells(chosen, names, scale)

    # 3. Resume finished cells from the checkpoint; run the rest
    #    in-process or on the pool.
    wave1_cells = 0

    def run_pending(indices: list, settle) -> None:
        nonlocal wave1_cells
        pending = [cells[i] for i in indices]
        # One cell memo per study: every row reads and fills it, so each
        # distinct detailed cell simulates once however many artifacts
        # share it.
        memo: dict = {}
        if n_jobs > 1:
            pooled: set = set()

            def settle_pooled(result) -> None:
                pooled.add(result.key)
                settle(result)

            memo = run_pool(
                pending, scale, timeout_seconds, n_jobs, cache_dir, settle_pooled
            )
            wave1_cells = len(memo)
            pending = [cell for cell in pending if cell.key not in pooled]
        for cell in pending:
            settle(runner.run_cell(
                cell,
                lambda exp=cell.experiment, name=cell.workload: run_spec_row(
                    exp, name, scale=scale, memo=memo
                ).to_payload(),
            ))

    store = CheckpointStore(checkpoint_path) if checkpoint_path is not None else None
    outcomes = run_keyed([cell.key for cell in cells], store, run_pending)

    # 4. Assemble.
    out = assemble_study(chosen, cells, outcomes)
    out["jobs"] = n_jobs
    out["wave1_cells"] = wave1_cells
    return out
