"""The field-access atlas: who touches which field, in which phase.

Built on the walker's access index, the atlas answers the question the
SoA object-model work needs answered mechanically: for every declared
field of every tracked model class, which methods read it, which write
it, and under which pipeline phase(s) each access runs.

Phase attribution rides the call graph.  ``Processor.step()`` calls the
four phase methods in a fixed order — complete, retire, issue,
sequencer — and everything each phase method (transitively) calls runs
under that phase.  The attribution starts a flood from each *root*
(phase method, constructor, or facade entry point) and propagates its
phase label through resolved calls, stopping at other roots: a helper
reachable from two phases carries both labels, which is precisely the
cross-phase sharing the hazard lint cares about.

The atlas is emitted in two forms: :func:`build_atlas` produces the
machine-readable dict committed as ``analysis/atlas.json`` (regenerated
and diffed in CI), and :func:`format_atlas` renders the human table.
Entries carry no file paths or line numbers so the artifact is stable
under edits that move code without changing the access pattern.
"""

from __future__ import annotations

from collections import deque

from .walker import MethodInfo, RepoIndex, TRACKED_CLASSES, collect_accesses

#: schema version of the committed atlas artifact
ATLAS_VERSION = 1

#: only accesses made from these module prefixes enter the atlas — the
#: atlas maps the *simulator core*; analysis/harness introspection code
#: reads model fields too but is not part of the pipeline semantics.
ATLAS_MODULE_SCOPE = ("core",)

#: call-graph roots and the phase label their flood carries.  The four
#: pipeline phases are listed in the order ``Processor.step()`` runs
#: them; :data:`PHASE_ORDER` encodes that order for the hazard lint.
PHASE_ROOTS: dict[str, str] = {
    "Processor.__init__": "construct",
    "Processor.step": "facade",
    "Processor.run": "facade",
    "Processor.snapshot": "facade",
    "Processor._complete_phase": "complete",
    "Processor._retire_phase": "retire",
    "Processor._issue_phase": "issue",
    "Processor._sequencer_phase": "sequencer",
}

#: same-cycle execution order of the pipeline phases inside ``step()``.
#: ``construct``/``facade`` are outside the cycle loop and take no part
#: in same-cycle hazard reasoning.
PHASE_ORDER: dict[str, int] = {
    "complete": 0,
    "retire": 1,
    "issue": 2,
    "sequencer": 3,
}


def attribute_phases(methods: dict[str, MethodInfo]) -> dict[str, frozenset[str]]:
    """Map each method qualname to the set of phases it can run under.

    A method not reachable from any root (properties, dead helpers,
    methods only tests call) gets an empty set.
    """
    # Adjacency restricted to known methods; unresolved callees dropped.
    callees = {
        name: [c for c in info.calls if c in methods]
        for name, info in methods.items()
    }
    phases: dict[str, set[str]] = {name: set() for name in methods}
    for root, phase in PHASE_ROOTS.items():
        if root not in methods:
            continue
        phases[root].add(phase)
        queue = deque(callees[root])
        seen = {root}
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            if current in PHASE_ROOTS:
                continue  # another root: its own flood labels it
            phases[current].add(phase)
            queue.extend(callees[current])
    return {name: frozenset(p) for name, p in phases.items()}


def _display_name(method: MethodInfo) -> str:
    """Render ``Processor._dispatch`` as ``sequencer._dispatch`` — the
    atlas attributes accesses to the *defining mixin module*, which is
    what a reader restructuring a stage needs."""
    stem = method.module.rsplit(".", 1)[-1]
    return f"{stem}.{method.name}"


def build_atlas(index: RepoIndex | None = None) -> dict:
    """Build the committed atlas document from a fresh static pass."""
    if index is None:
        from . import source_root

        index = RepoIndex(source_root())
    accesses, methods = collect_accesses(index)
    method_phases = attribute_phases(methods)

    classes: dict[str, dict] = {}
    for cls in TRACKED_CLASSES:
        declared = index.declared_fields(cls)
        if not declared:
            continue
        slotted: set[str] = set()
        for member in index.family_members(cls):
            slotted.update(member.slots)
        fields: dict[str, dict] = {}
        for name in sorted(declared):
            fields[name] = {
                "declared_in": "slots" if name in slotted else "init",
                "readers": set(),
                "writers": set(),
                "read_phases": set(),
                "write_phases": set(),
            }
        classes[cls] = {"fields": fields}

    for acc in accesses:
        if not acc.module.startswith(ATLAS_MODULE_SCOPE):
            continue
        entry = classes[acc.cls]["fields"][acc.attr]
        method = methods[acc.method]
        who = _display_name(method)
        phases = method_phases[acc.method]
        if acc.kind == "read":
            entry["readers"].add(who)
            entry["read_phases"].update(phases)
        elif acc.kind == "write":
            entry["writers"].add(who)
            entry["write_phases"].update(phases)
        else:  # mutate: in-place container update — both a read and a write
            entry["readers"].add(who)
            entry["writers"].add(who)
            entry["read_phases"].update(phases)
            entry["write_phases"].update(phases)

    for cls_entry in classes.values():
        for entry in cls_entry["fields"].values():
            for key in ("readers", "writers", "read_phases", "write_phases"):
                entry[key] = sorted(entry[key])

    return {
        "meta": {
            "version": ATLAS_VERSION,
            "scope": "repro." + "|repro.".join(ATLAS_MODULE_SCOPE),
            "classes": [c for c in TRACKED_CLASSES if c in classes],
        },
        "classes": classes,
    }


def atlas_access_set(atlas: dict) -> frozenset[tuple[str, str, str]]:
    """Flatten an atlas document to ``(class, field, kind)`` triples —
    the representation the dynamic trace diff compares against."""
    out: set[tuple[str, str, str]] = set()
    for cls, cls_entry in atlas["classes"].items():
        for name, entry in cls_entry["fields"].items():
            if entry["readers"]:
                out.add((cls, name, "read"))
            if entry["writers"]:
                out.add((cls, name, "write"))
    return frozenset(out)


def format_atlas(atlas: dict) -> str:
    """Human-readable table of the atlas, one block per class."""
    lines: list[str] = []
    lines.append(
        f"field-access atlas v{atlas['meta']['version']} "
        f"(scope: {atlas['meta']['scope']})"
    )
    for cls in atlas["meta"]["classes"]:
        fields = atlas["classes"][cls]["fields"]
        lines.append("")
        lines.append(f"{cls} ({len(fields)} fields)")
        header = f"  {'field':<22} {'decl':<6} {'rd-phases':<28} {'wr-phases':<28} rd/wr"
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for name, entry in fields.items():
            rd = ",".join(entry["read_phases"]) or "-"
            wr = ",".join(entry["write_phases"]) or "-"
            lines.append(
                f"  {name:<22} {entry['declared_in']:<6} {rd:<28} {wr:<28} "
                f"{len(entry['readers'])}/{len(entry['writers'])}"
            )
    return "\n".join(lines)


__all__ = [
    "ATLAS_MODULE_SCOPE",
    "ATLAS_VERSION",
    "PHASE_ORDER",
    "PHASE_ROOTS",
    "atlas_access_set",
    "attribute_phases",
    "build_atlas",
    "format_atlas",
]
