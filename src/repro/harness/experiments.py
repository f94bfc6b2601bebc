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

from ..core import CoreConfig, CoreStats, Processor
from ..errors import ConfigError
from ..machines import HEURISTIC_POLICIES
from ..workloads import WORKLOAD_NAMES
from .spec import (
    CellRow,
    WorkloadBundle,
    load_bundle,
    resolve_spec,
    run_spec_row,
    runnable_experiments,
    select_cells,
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
    "parse_only",
    "run_core",
    "run_study",
    "select_study_cells",
    "study_cells",
    "validate_experiments",
]


def run_core(bundle: WorkloadBundle, config: CoreConfig) -> CoreStats:
    """One detailed-machine simulation over a prepared bundle."""
    return Processor(bundle.program, config, bundle.golden, bundle.reconv).run()


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


def parse_only(only) -> list[tuple[str, str | None]]:
    """Normalize ``EXPERIMENT:WORKLOAD`` selectors into pairs.

    Accepts strings (``"figure5:vortex"``, or bare ``"figure5"`` for
    every workload of one experiment) and ``(experiment, workload)``
    tuples (``workload=None`` meaning all); a single string is one
    selector, not a sequence of characters.  Experiment names are
    validated against the registry here; workload names are validated
    against the enumerated grid by :func:`select_study_cells`.
    """
    runnable = runnable_experiments()
    if isinstance(only, str):
        only = [only]
    pairs: list[tuple[str, str | None]] = []
    for item in only:
        if isinstance(item, str):
            exp, _, workload = item.partition(":")
            pairs.append((exp, workload or None))
        else:
            exp, workload = item
            pairs.append((exp, workload))
        if pairs[-1][0] not in runnable:
            raise ConfigError(
                f"selector {item!r}: unknown experiment {pairs[-1][0]!r}; "
                f"choose from {sorted(runnable)}"
            )
    return pairs


def select_study_cells(cells, only):
    """Filter an enumerated study grid by ``EXPERIMENT:WORKLOAD`` pairs.

    Every selector must match at least one enumerated cell — a selector
    naming a workload outside the study's ``names`` is a configuration
    error, not a silent no-op.
    """
    if only is None:
        return list(cells)
    pairs = parse_only(only)
    selected = []
    matched = [False] * len(pairs)
    for cell in cells:
        hit = False
        for i, (exp, workload) in enumerate(pairs):
            if cell.experiment == exp and workload in (None, cell.workload):
                matched[i] = True
                hit = True
        if hit:
            selected.append(cell)
    missed = [pairs[i] for i, ok in enumerate(matched) if not ok]
    if missed:
        raise ConfigError(
            f"selectors matched no study cells: "
            f"{[f'{e}:{w}' if w else e for e, w in missed]!r} "
            "(is the workload in this study's names?)"
        )
    return selected


def study_cells(chosen, names, scale: float, experiment_kwargs: dict):
    """Enumerate the study grid as Cells, in deterministic order.

    Serial and pooled execution share this enumeration, so a checkpoint
    written by one is resumable by the other.
    """
    from .runner import Cell, config_hash

    cells = []
    for exp in chosen:
        knob_hash = config_hash({"experiment": exp, **experiment_kwargs})
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
    only=None,
    **experiment_kwargs,
) -> dict:
    """Run a cross-product of experiments × workloads fault-isolated.

    Each (experiment, workload) pair runs as one
    :func:`~repro.harness.spec.run_spec_row` cell: a crash or hang in
    one cell becomes an error-annotated row instead of killing the
    study, and — when ``checkpoint_path`` is given — completed cells are
    recorded and skipped on resume after an interruption.  ``names`` is
    a sequence of workloads or one bare workload name; repeated
    experiments or workloads run once, in first-seen order.
    ``experiment_kwargs`` (builder knobs such as ``windows=``, and
    ``cells=``) are checked against every chosen experiment before any
    cell runs: an unknown knob or cell label raises
    :class:`~repro.errors.ConfigError`.

    ``jobs`` (default: the ``REPRO_JOBS`` env var, else 1; ``"auto"`` =
    CPU count) fans the pending cells across worker processes via
    :func:`repro.harness.parallel.run_pool`, sharing artifacts through
    ``cache_dir`` (else a temporary directory); results are
    byte-identical to the serial run.  ``only`` restricts the grid to
    ``EXPERIMENT:WORKLOAD`` selectors (see :func:`select_study_cells`)
    for partial reruns.

    Each distinct detailed cell simulates once per study: the study
    owns one cell memo (:func:`~repro.harness.spec.memo_key`), so e.g.
    the window-256 ``CI`` machine that Figure 5, Tables 2-4 and Figures
    8-17 all run is simulated once per workload and the other rows read
    a copy of its stats.  Failed cells are never memoized, TFR cells
    always simulate, and two ``run_study`` calls never share results.
    Under ``jobs`` the pool runs cells first: wave 1 simulates each
    distinct detailed cell of the pending rows once (no retries) into a
    memo the parent holds, then wave 2 runs the rows, each shipped the
    entries it needs, so the simulated-cell count equals the serial
    path's whichever worker draws which task; a cell that failed in wave
    1 is simulated by its rows with the usual retries.

    Returns ``{"results": {experiment: {workload: row-or-error}},
    "failures": [CellResult...], "resumed": int, "jobs": int,
    "wave1_cells": int}``; ``wave1_cells`` counts the distinct detailed
    cells the pool's wave 1 simulated, 0 when no wave 1 ran.
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
    knobs = {k: v for k, v in experiment_kwargs.items() if k != "cells"}
    for exp in chosen:
        select_cells(resolve_spec(exp, knobs), experiment_kwargs.get("cells"))

    # 2. Enumerate the grid and apply ``only``.
    cells = select_study_cells(
        study_cells(chosen, names, scale, experiment_kwargs), only
    )
    if only is not None:
        chosen = [e for e in chosen if any(c.experiment == e for c in cells)]

    # 3. Resume finished cells from the checkpoint; run the rest
    #    in-process or on the pool.
    wave1_cells = 0

    def run_pending(indices: list, settle) -> None:
        nonlocal wave1_cells
        pending = [cells[i] for i in indices]
        if n_jobs > 1:
            wave1_cells = run_pool(
                pending, scale, experiment_kwargs, timeout_seconds, n_jobs,
                cache_dir, settle,
            )
            return
        # One cell memo per study: every row reads and fills it, so each
        # distinct detailed cell simulates once however many artifacts
        # share it.
        memo: dict = {}
        for cell in pending:
            settle(runner.run_cell(
                cell,
                lambda exp=cell.experiment, name=cell.workload: run_spec_row(
                    exp, name, scale=scale, memo=memo, **experiment_kwargs
                ).to_payload(),
            ))

    store = CheckpointStore(checkpoint_path) if checkpoint_path is not None else None
    outcomes = run_keyed([cell.key for cell in cells], store, run_pending)

    # 4. Assemble.
    out = assemble_study(chosen, cells, outcomes)
    out["jobs"] = n_jobs
    out["wave1_cells"] = wave1_cells
    return out
