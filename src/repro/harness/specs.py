"""The paper's artifact registry: every figure and table as a spec.

Each entry below is one artifact from *A Study of Control Independence
in Superscalar Processors* (HPCA 1999), declared as data: which machines
run, at which knob settings, which metric is read from each cell, and
how the cells fold into the artifact's row shape.  The generic engine in
:mod:`repro.harness.spec` executes any of them; the legacy
``run_figureN`` / ``run_tableN`` functions in
:mod:`repro.harness.experiments` are thin shims over these entries and
produce byte-identical rows.

Registration order is paper order (Table 1, Figure 3, Figure 5,
Figure 6, Tables 2-4, Figures 8-17); the runnable subset (Figure 6 is a
derived view over Figure 5) matches the historical ``EXPERIMENTS``
order, so study checkpoints enumerate cells identically.

Builders are parameterized by their artifact's sweep knobs (``windows``,
``window``, ``segments``, ``models``); calling ``run_spec(name,
windows=...)`` re-materializes the entry through its builder, and the
chosen knobs are recorded on the spec's ``params`` for provenance.

Figure → registry mapping (see also DESIGN.md).  The last column lists
the cells that materialize the same ``CoreConfig`` as a Figure 5 cell;
within one study the cell memo (:func:`repro.harness.spec.memo_key`)
simulates each such group once per workload, whichever artifact runs
first, and serves the others a copy of its stats.  ``CI256`` and
``BASE256`` are Figure 5's ``CI/w256`` and ``BASE/w256``:

=========  =====  ===========  =============================  ==========================
artifact   shape  transform    machines (registry names)      cells sharing a simulation
=========  =====  ===========  =============================  ==========================
Table 1    rows   —            functional                     — (functional: no memo)
Figure 3   grid   —            ideal/* × window               — (ideal: no memo)
Figure 5   grid   —            BASE, CI, CI-I × window        ``CI/w256`` = CI256,
                                                              ``BASE/w256`` = BASE256
Figure 6   (derived from Figure 5 via ``ci_over_base``)
Table 2    rows   —            CI                             ``CI`` = CI256
Table 3    rows   —            CI                             ``CI`` = CI256
Table 4    rows   —            BASE + CI                      ``BASE`` = BASE256,
                                                              ``CI`` = CI256
Figure 8   map    —            CI × preemption                ``optimal`` = CI256
Figure 9   map    —            CI × completion model (× HFM)  ``spec-C`` = CI256
Figure 10  map    —            CI + TFR collectors            — (TFR cells bypass the memo)
Figure 12  map    —            CI × oracle global history     ``timing`` = CI256
Figure 13  map    —            BASE + CI × repredict mode     ``base`` = BASE256,
                                                              ``CI`` = CI256
Figure 14  map    —            BASE + CI × segment size       ``base`` = BASE256,
                                                              ``seg1`` = CI256
Figure 17  map    pct_vs_base  BASE + CI/<heuristic>... + CI  ``base`` = BASE256,
                                                              ``postdom`` = CI256
=========  =====  ===========  =============================  ==========================

The 42 detailed cells per workload therefore run 28 distinct
configurations plus Figure 10's TFR cell: a full study simulates 29
cells per workload.
"""

from __future__ import annotations

from ..core import CompletionModel, Preemption, RepredictMode
from ..ideal.models import IdealModel
from ..machines import (
    DETAILED_MACHINE_NAMES,
    HEURISTIC_POLICIES,
    IDEAL_PREFIX,
    heuristic_machine,
)
from .spec import CellSpec, ExperimentSpec, MachineSpec, register_spec

#: window sweeps, as in the paper's figures
DETAILED_WINDOWS = (128, 256, 512)
IDEAL_WINDOWS = (64, 128, 256, 512)

#: Figure 9's branch completion models (label, model, hide-false-misp.)
COMPLETION_CONFIGS = (
    ("non-spec", CompletionModel.NON_SPEC, False),
    ("spec-D", CompletionModel.SPEC_D, False),
    ("spec-D-HFM", CompletionModel.SPEC_D, True),
    ("spec-C", CompletionModel.SPEC_C, False),
    ("spec-C-HFM", CompletionModel.SPEC_C, True),
    ("spec", CompletionModel.SPEC, False),
    ("spec-HFM", CompletionModel.SPEC, True),
)


def _win(window: int) -> tuple[tuple[str, int], ...]:
    return (("window_size", window),)


# ----------------------------------------------------------------------
# Table 1 — benchmark information (architectural trace measurement)


@register_spec
def _table1() -> ExperimentSpec:
    return ExperimentSpec(
        name="table1",
        artifact="Table 1",
        title="Benchmark information",
        shape="rows",
        default_scale=1.0,
        needs="program",
        cells=(
            CellSpec(
                label="trace",
                machine=MachineSpec("functional"),
                metric="table1_row",
            ),
        ),
    )


# ----------------------------------------------------------------------
# Figure 3 — the six idealized models vs window size


@register_spec
def _figure3(
    windows=IDEAL_WINDOWS, models=tuple(IdealModel)
) -> ExperimentSpec:
    windows, models = tuple(windows), tuple(models)
    return ExperimentSpec(
        name="figure3",
        artifact="Figure 3",
        title="Idealized machine models vs window size",
        shape="grid",
        default_scale=0.4,
        cells=tuple(
            CellSpec(
                label=f"{model.value}/w{window}",
                machine=MachineSpec(
                    f"{IDEAL_PREFIX}{model.value}", overrides=_win(window)
                ),
                group=model.value,
                key=window,
            )
            for model in models
            for window in windows
        ),
        params=(("models", models), ("windows", windows)),
    )


# ----------------------------------------------------------------------
# Figures 5 & 6 — detailed BASE / CI / CI-I


@register_spec
def _figure5(windows=DETAILED_WINDOWS) -> ExperimentSpec:
    windows = tuple(windows)
    return ExperimentSpec(
        name="figure5",
        artifact="Figure 5",
        title="Detailed BASE / CI / CI-I vs window size",
        shape="grid",
        default_scale=0.12,
        cells=tuple(
            CellSpec(
                label=f"{machine}/w{window}",
                machine=MachineSpec(machine, overrides=_win(window)),
                group=machine,
                key=window,
            )
            for machine in DETAILED_MACHINE_NAMES
            for window in windows
        ),
        params=(("windows", windows),),
    )


@register_spec
def _figure6() -> ExperimentSpec:
    return ExperimentSpec(
        name="figure6",
        artifact="Figure 6",
        title="Percent IPC improvement of CI over BASE",
        shape="map",
        default_scale=0.12,
        derives="figure5",
        transform="ci_over_base",
    )


# ----------------------------------------------------------------------
# Tables 2, 3, 4 — restart statistics, work saved, reissue causes


@register_spec
def _table2(window: int = 256) -> ExperimentSpec:
    return ExperimentSpec(
        name="table2",
        artifact="Table 2",
        title="Restart statistics for the CI machine",
        shape="rows",
        default_scale=0.12,
        cells=(
            CellSpec(
                label="CI",
                machine=MachineSpec("CI", overrides=_win(window)),
                metric="table2_row",
            ),
        ),
        params=(("window", window),),
    )


@register_spec
def _table3(window: int = 256) -> ExperimentSpec:
    return ExperimentSpec(
        name="table3",
        artifact="Table 3",
        title="Fetch and execution work saved by the CI machine",
        shape="rows",
        default_scale=0.12,
        cells=(
            CellSpec(
                label="CI",
                machine=MachineSpec("CI", overrides=_win(window)),
                metric="table3_row",
            ),
        ),
        params=(("window", window),),
    )


@register_spec
def _table4(window: int = 256) -> ExperimentSpec:
    return ExperimentSpec(
        name="table4",
        artifact="Table 4",
        title="Instruction reissue causes, BASE vs CI",
        shape="rows",
        default_scale=0.12,
        cells=(
            CellSpec(
                label="BASE",
                machine=MachineSpec("BASE", overrides=_win(window)),
                metric="table4_noci",
            ),
            CellSpec(
                label="CI",
                machine=MachineSpec("CI", overrides=_win(window)),
                metric="table4_ci",
            ),
        ),
        params=(("window", window),),
    )


# ----------------------------------------------------------------------
# Figure 8 — simple vs optimal preemption


@register_spec
def _figure8(window: int = 256) -> ExperimentSpec:
    return ExperimentSpec(
        name="figure8",
        artifact="Figure 8",
        title="Simple vs optimal preemption",
        shape="map",
        default_scale=0.12,
        cells=tuple(
            CellSpec(
                label=label,
                machine=MachineSpec(
                    "CI",
                    overrides=(
                        ("preemption", preemption),
                        ("window_size", window),
                    ),
                ),
                group=label,
            )
            for label, preemption in (
                ("simple", Preemption.SIMPLE),
                ("optimal", Preemption.OPTIMAL),
            )
        ),
        params=(("window", window),),
    )


# ----------------------------------------------------------------------
# Figure 9 — branch completion models and false mispredictions


@register_spec
def _figure9(window: int = 256) -> ExperimentSpec:
    return ExperimentSpec(
        name="figure9",
        artifact="Figure 9",
        title="Branch completion models and false mispredictions",
        shape="map",
        default_scale=0.12,
        cells=tuple(
            CellSpec(
                label=label,
                machine=MachineSpec(
                    "CI",
                    overrides=(
                        ("completion_model", model),
                        ("hide_false_mispredictions", hfm),
                        ("window_size", window),
                    ),
                ),
                group=label,
            )
            for label, model, hfm in COMPLETION_CONFIGS
        ),
        params=(("window", window),),
    )


# ----------------------------------------------------------------------
# Figure 10 — TFR schemes for identifying false mispredictions


@register_spec
def _figure10(window: int = 256) -> ExperimentSpec:
    return ExperimentSpec(
        name="figure10",
        artifact="Figure 10",
        title="TFR coverage of false mispredictions",
        shape="map",
        default_scale=0.12,
        cells=(
            CellSpec(
                label="tfr",
                machine=MachineSpec(
                    "CI",
                    overrides=(
                        ("completion_model", CompletionModel.SPEC),
                        ("window_size", window),
                    ),
                ),
                metric="tfr_curves",
                tfr=("static", "dynamic_pc", "dynamic_xor"),
            ),
        ),
        params=(("window", window),),
    )


# ----------------------------------------------------------------------
# Figure 12 — oracle global branch history


@register_spec
def _figure12(window: int = 256) -> ExperimentSpec:
    return ExperimentSpec(
        name="figure12",
        artifact="Figure 12",
        title="Oracle global branch history",
        shape="map",
        default_scale=0.12,
        cells=tuple(
            CellSpec(
                label=label,
                machine=MachineSpec(
                    "CI",
                    overrides=(
                        ("oracle_global_history", oracle),
                        ("window_size", window),
                    ),
                ),
                group=label,
            )
            for label, oracle in (("timing", False), ("oracle-history", True))
        ),
        params=(("window", window),),
    )


# ----------------------------------------------------------------------
# Figure 13 — re-predict sequences


@register_spec
def _figure13(window: int = 256) -> ExperimentSpec:
    return ExperimentSpec(
        name="figure13",
        artifact="Figure 13",
        title="Re-predict sequences",
        shape="map",
        default_scale=0.12,
        cells=(
            CellSpec(
                label="base",
                machine=MachineSpec("BASE", overrides=_win(window)),
                group="base",
            ),
            *(
                CellSpec(
                    label=label,
                    machine=MachineSpec(
                        "CI",
                        overrides=(
                            ("repredict_mode", mode),
                            ("window_size", window),
                        ),
                    ),
                    group=label,
                )
                for label, mode in (
                    ("CI-NR", RepredictMode.NONE),
                    ("CI", RepredictMode.HEURISTIC),
                    ("CI-OR", RepredictMode.ORACLE),
                )
            ),
        ),
        params=(("window", window),),
    )


# ----------------------------------------------------------------------
# Figure 14 — segmented reorder buffers


@register_spec
def _figure14(window: int = 256, segments=(1, 4, 16)) -> ExperimentSpec:
    segments = tuple(segments)
    return ExperimentSpec(
        name="figure14",
        artifact="Figure 14",
        title="Segmented reorder buffers",
        shape="map",
        default_scale=0.12,
        cells=(
            CellSpec(
                label="base",
                machine=MachineSpec("BASE", overrides=_win(window)),
                group="base",
            ),
            *(
                CellSpec(
                    label=f"seg{seg}",
                    machine=MachineSpec(
                        "CI",
                        overrides=(
                            ("segment_size", seg),
                            ("window_size", window),
                        ),
                    ),
                    group=f"seg{seg}",
                )
                for seg in segments
            ),
        ),
        params=(("segments", segments), ("window", window)),
    )


# ----------------------------------------------------------------------
# Figure 17 — hardware reconvergence heuristics


@register_spec
def _figure17(window: int = 256) -> ExperimentSpec:
    return ExperimentSpec(
        name="figure17",
        artifact="Figure 17",
        title="Hardware reconvergence heuristics, percent over BASE",
        shape="map",
        default_scale=0.12,
        transform="pct_vs_base",
        cells=(
            CellSpec(
                label="base",
                machine=MachineSpec("BASE", overrides=_win(window)),
                group="base",
            ),
            *(
                CellSpec(
                    label=policy.value,
                    machine=MachineSpec(
                        heuristic_machine(policy).name, overrides=_win(window)
                    ),
                    group=policy.value,
                )
                for policy in HEURISTIC_POLICIES
            ),
        ),
        params=(("window", window),),
    )


__all__ = [
    "COMPLETION_CONFIGS",
    "DETAILED_WINDOWS",
    "IDEAL_WINDOWS",
]
