"""Dynamic attribute-access tracing — the atlas's ground-truth check.

The static atlas is built by heuristic receiver inference, so it can in
principle *miss* accesses (a local name the inference tiers don't
resolve).  This module provides the other half of the gate: run a real
simulation with every tracked class's ``__getattribute__`` /
``__setattr__`` temporarily instrumented, record the set of
``(class, field, kind)`` triples that actually occur, and require the
dynamic set to be a subset of the static one (:func:`diff_against_atlas`).
A dynamic access the atlas lacks is an inference gap and fails the
gate; the reverse — static entries never exercised dynamically — is
expected (error paths, scheme-specific code, config-gated features).

Instrumentation is class-level and fully reversible: patched methods
are installed on the class objects for the duration of the context
manager and restored (or deleted, when the class never defined its own)
on exit.  Recording is a first-occurrence set insert per (class, field,
kind), so a traced golden cell runs within a small constant factor of
an untraced one.
"""

from __future__ import annotations

from contextlib import contextmanager

#: canonical atlas label -> concrete classes whose instances carry the
#: family's state at runtime (the stage mixins never instantiate).
def _target_classes() -> dict[str, tuple[type, ...]]:
    from repro.core.lsq import LoadStoreQueue
    from repro.core.processor import Processor
    from repro.core.regfile import PhysReg
    from repro.core.rob import ReorderBuffer, Segment
    from repro.core.soa import CompletionWheel, InstrPool
    from repro.core.stages.sequencer import _Context

    return {
        "CompletionWheel": (CompletionWheel,),
        "InstrPool": (InstrPool,),
        "LoadStoreQueue": (LoadStoreQueue,),
        "PhysReg": (PhysReg,),
        "Processor": (Processor,),
        "ReorderBuffer": (ReorderBuffer,),
        "Segment": (Segment,),
        "_Context": (_Context,),
    }


def _make_getattribute(orig, label: str, declared: frozenset, events: set):
    def traced_getattribute(self, name):
        if name in declared:
            key = (label, name, "read")
            if key not in events:
                events.add(key)
        return orig(self, name)

    return traced_getattribute


def _make_setattr(orig, label: str, declared: frozenset, events: set):
    def traced_setattr(self, name, value):
        if name in declared:
            key = (label, name, "write")
            if key not in events:
                events.add(key)
        orig(self, name, value)

    return traced_setattr


@contextmanager
def trace_attribute_access(declared_fields: dict[str, frozenset]):
    """Instrument the tracked classes; yield the live event set.

    ``declared_fields`` maps canonical class labels to their declared
    field names (from :meth:`RepoIndex.declared_fields`) — only those
    names are recorded, so method and property lookups stay invisible.
    """
    events: set[tuple[str, str, str]] = set()
    patched: list[tuple[type, str, object | None]] = []
    try:
        for label, classes in _target_classes().items():
            declared = declared_fields.get(label, frozenset())
            if not declared:
                continue
            for cls in classes:
                for attr, maker in (
                    ("__getattribute__", _make_getattribute),
                    ("__setattr__", _make_setattr),
                ):
                    original = cls.__dict__.get(attr)
                    # Bind the *type-level* implementation (inherited
                    # from object when the class defines none) so the
                    # traced wrapper delegates correctly either way.
                    effective = getattr(cls, attr)
                    patched.append((cls, attr, original))
                    setattr(cls, attr, maker(effective, label, declared, events))
        yield events
    finally:
        for cls, attr, original in reversed(patched):
            if original is None:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)


def trace_golden_cell(workload: str = "go", machine: str = "CI", scale: float = 0.12):
    """Run one golden core cell under tracing; return the event set.

    The default cell (go/CI) exercises dispatch, issue, recovery with
    selective squash, and retire — the widest field-access footprint of
    the core machines.
    """
    from repro.harness.experiments import load_bundle, run_core

    from . import source_root
    from .walker import RepoIndex

    index = RepoIndex(source_root())
    declared = {
        label: index.declared_fields(label) for label in _target_classes()
    }
    bundle = load_bundle(workload, scale)
    config = _machine_config(machine)
    with trace_attribute_access(declared) as events:
        run_core(bundle, config)
    return frozenset(events)


def _machine_config(machine: str):
    """The golden-suite machine configs (mirrors tests/test_equivalence)."""
    from repro.core.config import CoreConfig, ReconvPolicy

    if machine == "BASE":
        return CoreConfig(window_size=256, reconv_policy=ReconvPolicy.NONE)
    if machine == "CI":
        return CoreConfig(window_size=256, reconv_policy=ReconvPolicy.POSTDOM)
    if machine == "CI-I":
        return CoreConfig(
            window_size=256,
            reconv_policy=ReconvPolicy.POSTDOM,
            instant_redispatch=True,
        )
    raise ValueError(f"unknown machine {machine!r}")


def diff_against_atlas(events: frozenset, atlas: dict) -> list[tuple[str, str, str]]:
    """Dynamic events with no static-atlas entry (should be empty).

    A static ``mutate`` is recorded in the atlas as both read and write,
    and a dynamic ``__setattr__`` on a field the atlas knows only as
    mutated is still covered; the comparison is therefore a plain
    subset check over (class, field, kind).
    """
    from .atlas import atlas_access_set

    return sorted(set(events) - atlas_access_set(atlas))


__all__ = [
    "diff_against_atlas",
    "trace_attribute_access",
    "trace_golden_cell",
]
