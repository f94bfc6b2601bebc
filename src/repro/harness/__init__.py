"""Experiment harness: one spec engine for every table and figure, the
fault-isolated study runner, and the paper-style formatters.

One function per concern: :func:`run_spec` turns an artifact into rows,
:func:`derive` builds a derived view (Figure 6 from Figure 5), and
:func:`run_study` runs a fault-isolated study, serial or pooled.
"""

from .spec import (
    CellRow,
    CellSpec,
    ExperimentSpec,
    MachineSpec,
    derive,
    get_spec,
    run_spec,
    run_spec_row,
    runnable_experiments,
    select_cells,
    spec_names,
)
from .experiments import (
    COMPLETION_CONFIGS,
    DETAILED_WINDOWS,
    HEURISTIC_POLICIES,
    IDEAL_WINDOWS,
    WorkloadBundle,
    assemble_study,
    load_bundle,
    parse_only,
    run_core,
    run_study,
    select_study_cells,
    validate_experiments,
)
from .cache import (
    ArtifactCache,
    CacheStats,
    configure_default_cache,
    get_default_cache,
    reset_default_cache,
)
from .parallel import resolve_jobs
from .runner import (
    Cell,
    CellResult,
    CellRunner,
    CheckpointStore,
    Deadline,
    config_hash,
    run_keyed,
)
from .tables import format_experiment, format_reconv_report

__all__ = [
    "COMPLETION_CONFIGS",
    "DETAILED_WINDOWS",
    "HEURISTIC_POLICIES",
    "IDEAL_WINDOWS",
    "ArtifactCache",
    "CacheStats",
    "Cell",
    "CellResult",
    "CellRow",
    "CellRunner",
    "CellSpec",
    "CheckpointStore",
    "Deadline",
    "ExperimentSpec",
    "MachineSpec",
    "WorkloadBundle",
    "assemble_study",
    "config_hash",
    "derive",
    "get_spec",
    "parse_only",
    "run_spec",
    "run_spec_row",
    "runnable_experiments",
    "select_cells",
    "select_study_cells",
    "spec_names",
    "validate_experiments",
    "configure_default_cache",
    "get_default_cache",
    "reset_default_cache",
    "resolve_jobs",
    "run_keyed",
    "run_study",
    "load_bundle",
    "run_core",
    "format_experiment",
    "format_reconv_report",
]
