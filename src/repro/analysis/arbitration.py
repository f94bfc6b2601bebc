"""The same-cycle arbitration contract, as a declarative spec.

When several instructions become issue-eligible in the same cycle, the
ready heap breaks the tie by ``(eligible, order, uid)``, where ``order``
is the ROB's order key (:mod:`repro.core.rob`).  This module states that
contract once, declaratively, and two independent checkers hold the
code to it:

* the **static** checker (:mod:`repro.analysis.staticcheck.contract`)
  verifies that the ready heap is pushed and popped *only* at the
  declared sites, that every push key has the declared composition,
  and that the ROB's placement routine falls back to the declared
  rewrite routine;
* the **dynamic** test (``tests/test_arbitration.py``) instruments the
  heap and the respace epochs on the golden cells and the fuzz corpus
  and verifies the keys-stable clause at runtime.

The spec is data, not behavior — nothing in the simulator imports it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HeapKeySpec:
    """Composition of a ready-heap entry tuple.

    Entries are pure int tuples: the payload is a pool *handle* into the
    columnar :class:`repro.core.soa.InstrPool`, and the captured
    components are reads of the pool's ``order``/``uid`` columns at push
    time.  The captured ``uid`` doubles as the pop-side validity check —
    a recycled slot's live ``uid`` no longer matches the entry's."""

    #: entry component names, in tuple order
    fields: tuple[str, ...]
    #: components captured from the pool columns *at push time* — these
    #: can go stale if the column cell is rewritten while the entry waits
    captured_at_push: tuple[str, ...]
    #: the component carrying the pool handle
    payload: str


@dataclass(frozen=True)
class HeapSiteSpec:
    """One declared push or pop site of the ready heap."""

    module: str  # dotted module under repro (e.g. "core.stages.backend")
    function: str
    op: str  # "push" | "pop"


@dataclass(frozen=True)
class ArbitrationContract:
    """Everything the same-cycle tie-break behavior is allowed to do."""

    #: the Processor attribute holding the ready heap
    heap_attr: str
    key: HeapKeySpec
    push_sites: tuple[HeapSiteSpec, ...]
    pop_sites: tuple[HeapSiteSpec, ...]
    #: True when a pushed key's ``order`` component can never diverge
    #: from the slot's live ``order`` without an epoch event
    keys_stable: bool
    #: the maintenance routine that rewrites live ``order`` values
    #: (and therefore strands captured heap keys) — the "epoch event"
    rewrite_routine: str
    #: the ROB's restart-placement routine, which may invoke the rewrite
    placement_routine: str
    #: one-line statement of the policy, rendered into DESIGN.md
    policy: str

    def describe(self) -> str:
        """Render the contract as the DESIGN.md section body."""
        lines = [
            f"Ready heap: `Processor.{self.heap_attr}`, entries "
            f"`({', '.join(self.key.fields)})`.",
            f"Captured at push: {', '.join(self.key.captured_at_push)} "
            f"(pool-column reads; stale once the cell's live value "
            f"moves); payload: `{self.key.payload}`.",
            "",
            "Push sites: "
            + ", ".join(f"`{s.module}.{s.function}`" for s in self.push_sites)
            + ".",
            "Pop sites: "
            + ", ".join(f"`{s.module}.{s.function}`" for s in self.pop_sites)
            + ".",
            "",
            f"Order keys: {self.policy}.",
            f"  keys stable: {self.keys_stable}; order rewrite: "
            f"`{self.rewrite_routine}` (from `{self.placement_routine}`).",
        ]
        return "\n".join(lines)


#: THE contract.  Change simulator arbitration behavior → change this
#: spec in the same commit, or the static checker and dynamic test fail.
CONTRACT = ArbitrationContract(
    heap_attr="_ready",
    key=HeapKeySpec(
        fields=("eligible", "order", "uid", "handle"),
        captured_at_push=("order", "uid"),
        payload="handle",
    ),
    push_sites=(
        HeapSiteSpec("core.stages.sequencer", "_dispatch", "push"),
        HeapSiteSpec("core.stages.backend", "_push_ready", "push"),
        HeapSiteSpec("core.stages.backend", "_broadcast", "push"),
    ),
    pop_sites=(
        HeapSiteSpec("core.stages.backend", "_issue_phase", "pop"),
    ),
    keys_stable=True,
    rewrite_routine="_respace",
    placement_routine="_place",
    policy=(
        "renumber-free monotonic tail sequence (spaced 2^16); "
        "insertions bisect the gap low-biased; orders are never "
        "rewritten in normal operation (`_respace` is a "
        "never-expected fallback), so captured keys equal live "
        "orders at pop time"
    ),
)


__all__ = [
    "ArbitrationContract",
    "CONTRACT",
    "HeapKeySpec",
    "HeapSiteSpec",
]
