"""Structure-of-arrays state columns for the detailed core.

The detailed machine's dynamic-instruction state lives here as dense,
preallocated columns rather than per-instruction Python objects:

* :class:`InstrPool` — the columnar instruction pool: every field a
  dynamic instruction carries (identity, window links, rename tags,
  execution state, control state) is one capacity-sized column, and an
  in-flight instruction is just an integer *handle* indexing them.
  Slots are recycled through a free list on retire/squash; handles 0
  and 1 are the window's permanent head/tail boundary slots.
* :class:`CompletionWheel` — the completion-event schedule as a
  preallocated ring of slot lists indexed by ``cycle & mask``.  Packed
  slot references and reissue tokens live in two parallel lists per
  slot (structure of arrays, not an array of tuples), so scheduling an
  event allocates nothing.

Two interchangeable backends implement the integer columns: ``numpy``
(preferred when importable) and a pure-stdlib ``array('q')`` fallback,
selected per pool by the ``REPRO_SOA`` environment variable
(``numpy`` | ``fallback``; unset auto-selects by column capacity — see
:func:`resolve_backend`).  Both
backends are semantically identical — the golden equivalence suite runs
the 18 committed cells through each and requires byte-identical
statistics.

Deliberately *not* columnar (measured, not assumed):

* the ready list stays a ``heapq`` of ``(eligible, order, uid, handle)``
  int tuples — CPython's C-implemented heap beats any Python-level
  sift-up/down over parallel arrays at window-sized occupancies;
* the rename map stays a list of ``PhysReg`` objects — tags are already
  shared write-many cells, and the broadcast network addresses them
  directly;
* the LSQ's unresolved-store subset stays a keyed dict — its entries'
  order keys would go stale on a ROB renumber, and the subset is
  near-empty in steady state;
* window positions are not stored at all — ``ReorderBuffer.index_of``
  recounts one from the links on demand, which is cheaper than keeping
  a sorted order-key column current on every dispatch and unlink.
"""

from __future__ import annotations

import os
from array import array

try:  # optional dependency: the stdlib fallback is always available
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via REPRO_SOA=fallback
    _np = None

#: backends accepted by ``REPRO_SOA`` / :func:`resolve_backend`
BACKENDS = ("numpy", "fallback")

#: capacity below which auto-selection prefers the stdlib column: numpy's
#: per-element scalar boxing on compare/assign costs more than it saves
#: until the columns are large (measured: ~30% slower at the paper's
#: 256-entry window, ahead by ~4k entries)
NUMPY_MIN_CAPACITY = 4096


def resolve_backend(name: str | None = None, capacity: int | None = None) -> str:
    """Resolve a backend name (or the ``REPRO_SOA`` env var) to one of
    :data:`BACKENDS`.

    An explicit name (argument or environment) always wins.  Unset picks
    numpy only when it is importable *and* the column is large enough to
    profit (:data:`NUMPY_MIN_CAPACITY`); paper-scale windows go to the
    stdlib column, which is faster there.
    """
    if name is None:
        name = os.environ.get("REPRO_SOA", "") or None
    if name is None:
        if _np is None:
            return "fallback"
        if capacity is not None and capacity < NUMPY_MIN_CAPACITY:
            return "fallback"
        return "numpy"
    name = name.lower()
    if name == "array":  # accepted alias for the stdlib backend
        name = "fallback"
    if name not in BACKENDS:
        raise ValueError(
            f"unknown SoA backend {name!r}; expected one of {BACKENDS} "
            "(REPRO_SOA)"
        )
    if name == "numpy" and _np is None:
        raise ValueError("REPRO_SOA=numpy but numpy is not importable")
    return name


# ----------------------------------------------------------------------
# the columnar instruction pool

#: permanent boundary handles: the window's head/tail anchor slots.
#: Real instructions occupy handles ``>= 2``; link walks start at
#: ``next[HEAD]`` and stop on ``TAIL``, so the boundaries are explicit
#: indices rather than sentinel objects.
HEAD = 0
TAIL = 1

#: ``state`` column bit flags — the nine boolean fields of a dynamic
#: instruction packed into one int so liveness/retire gating is a single
#: masked compare and a slot reset is one store.
ST_INFLIGHT = 1 << 0
ST_COMPLETED = 1 << 1
ST_RETIRED = 1 << 2
ST_SQUASHED = 1 << 3
ST_IN_READY = 1 << 4
ST_RECOVERING = 1 << 5
ST_FETCHED_MP = 1 << 6
ST_ISSUED_MP = 1 << 7
ST_REISSUED_MP = 1 << 8

#: an instruction is dead once retired or squashed
ST_DEAD = ST_RETIRED | ST_SQUASHED

#: retirement proceeds only when the head slot's gating bits are exactly
#: "completed": not in the ready heap, not executing, not recovering
ST_RETIRE_GATE = ST_COMPLETED | ST_IN_READY | ST_INFLIGHT | ST_RECOVERING

#: packed slot references: ``ref = (uid << REF_SHIFT) | handle``.  A ref
#: stored in a side structure (ready heap payloads validate by uid, the
#: completion wheel, register consumer lists, ``fwd_store``) stays valid
#: across slot recycling — a recycled slot rewrites its ``ref`` column
#: entry, so ``pool.ref[ref & REF_MASK] == ref`` iff the referenced
#: instruction still owns the slot.
REF_SHIFT = 32
REF_MASK = (1 << REF_SHIFT) - 1


class InstrPool:
    """Preallocated columnar store of every in-flight instruction.

    One column per ``DynInstr`` field of the historical object model; an
    instruction is an integer handle into them.  The owning
    :class:`~repro.core.rob.ReorderBuffer` claims a slot off the LIFO
    free list ``_free`` at dispatch (``ReorderBuffer.claim``) and pushes
    it back when it unlinks the slot at retire/squash
    (``ReorderBuffer.remove``) — one call each, so the slot claim and the
    link (or the unlink and the free) never cost two frames.  Handles
    :data:`HEAD` and :data:`TAIL` are the window's permanent boundary
    slots and are never claimed.

    Columns split by type, deliberately:

    * **backend-typed int columns** (``uid``, ``order``, ``prev``,
      ``next``, ``state``) — the link/ordering/liveness state every
      hot-path check touches, held as ``array('q')`` or numpy ``int64``
      per :func:`resolve_backend` (capacity-aware auto-selection).
    * **plain-list columns** (tags, values, addresses, control state) —
      these hold Python objects or feed statistics/serialization, where
      a numpy scalar (``np.int64``) leaking out would break JSON
      checkpoints and identity checks.

    A freed slot keeps its ``uid`` and dead ``state`` bits until the
    slot is claimed again, so stale references held by the ready heap or
    the completion wheel validate (and skip) exactly like the historical
    dead-node checks.  The claim resets every stateful column except the
    five rename-tag columns, which dispatch writes for every instruction.
    """

    __slots__ = (
        "capacity",
        "allocated_total",
        # backend-typed int columns
        "uid",
        "order",
        "prev",
        "next",
        "state",
        # identity / payload columns (plain lists)
        "ref",
        "pc",
        "instr",
        "segment",
        # rename columns
        "src1_tag",
        "src2_tag",
        "dest_tag",
        "dest_arch",
        "prev_tag",
        # execution-state columns
        "dispatch_cycle",
        "issue_count",
        "value",
        "addr",
        "prev_addr",
        "store_value",
        "fwd_store",
        "src1_version",
        "src2_version",
        # control-state columns
        "predicted_taken",
        "predicted_next_pc",
        "history_used",
        "ras_snapshot",
        "current_taken",
        "current_next_pc",
        "outcome_taken",
        "outcome_next_pc",
        "first_issue_cycle",
        "value_final_cycle",
        "_free",
    )

    backend = "abstract"

    def __new__(cls, capacity: int, backend: str | None = None):
        if cls is InstrPool:
            resolved = resolve_backend(backend, capacity)
            cls = _NumpyInstrPool if resolved == "numpy" else _ArrayInstrPool
        return object.__new__(cls)

    def __init__(self, capacity: int, backend: str | None = None):
        capacity = int(capacity)
        if capacity < 3:
            raise ValueError("InstrPool needs the two boundary slots plus one")
        self.capacity = capacity
        self.allocated_total = 0
        alloc = self._alloc_int_col
        self.uid = alloc(capacity)
        self.order = alloc(capacity)
        self.prev = alloc(capacity)
        self.next = alloc(capacity)
        self.state = alloc(capacity)
        for col in (self.uid, self.order, self.prev, self.next):
            col[0 : capacity] = self._int_fill(-1, capacity)
        # Unallocated slots read as dead, so an accidentally retained
        # handle behaves like a squashed instruction, never a live one.
        self.state[0:capacity] = self._int_fill(ST_SQUASHED, capacity)
        self.ref = [-1] * capacity
        none_col = [None] * capacity
        self.pc = [-1] * capacity
        self.instr = list(none_col)
        self.segment = list(none_col)
        self.src1_tag = list(none_col)
        self.src2_tag = list(none_col)
        self.dest_tag = list(none_col)
        self.dest_arch = list(none_col)
        self.prev_tag = list(none_col)
        self.dispatch_cycle = [0] * capacity
        self.issue_count = [0] * capacity
        self.value = list(none_col)
        self.addr = list(none_col)
        self.prev_addr = list(none_col)
        self.store_value = list(none_col)
        self.fwd_store = list(none_col)
        self.src1_version = [-1] * capacity
        self.src2_version = [-1] * capacity
        self.predicted_taken = [False] * capacity
        self.predicted_next_pc = [0] * capacity
        self.history_used = [0] * capacity
        self.ras_snapshot = list(none_col)
        self.current_taken = [False] * capacity
        self.current_next_pc = [0] * capacity
        self.outcome_taken = [False] * capacity
        self.outcome_next_pc = [0] * capacity
        self.first_issue_cycle = [-1] * capacity
        self.value_final_cycle = [-1] * capacity
        # Boundary slots: alive (state 0), fixed uids, linked by the ROB.
        self.uid[HEAD] = -1
        self.uid[TAIL] = -2
        self.state[HEAD] = 0
        self.state[TAIL] = 0
        # LIFO free list over the real slots; popping from the end means
        # the most recently freed slot is reused first (cache-warm).
        self._free = list(range(capacity - 1, TAIL, -1))

    # ------------------------------------------------------------------

    @property
    def live(self) -> int:
        """Number of currently allocated (not freed) real slots."""
        return (self.capacity - 2) - len(self._free)

    def is_alive(self, h: int) -> bool:
        """Liveness of a slot (false for retired/squashed/freed)."""
        return not self.state[h] & ST_DEAD

    def valid_ref(self, ref: int) -> bool:
        """True iff a packed reference still addresses its instruction."""
        return self.ref[ref & REF_MASK] == ref

    def describe(self, h: int) -> str:
        """Diagnostic rendering of a slot (sanitizer/injector messages)."""
        instr = self.instr[h]
        op = instr.op.name if instr is not None else "?"
        return f"<{int(self.uid[h])}:{self.pc[h]}:{op}>"


class _ArrayInstrPool(InstrPool):
    """Stdlib ``array('q')`` int columns — no dependencies, and the
    faster choice at paper-scale window sizes."""

    __slots__ = ()

    backend = "fallback"

    @staticmethod
    def _alloc_int_col(capacity: int):
        return array("q", bytes(8 * capacity))

    @staticmethod
    def _int_fill(value: int, count: int):
        return array("q", [value]) * count


class _NumpyInstrPool(InstrPool):
    """numpy ``int64`` int columns — preferred for large pools."""

    __slots__ = ()

    backend = "numpy"

    @staticmethod
    def _alloc_int_col(capacity: int):
        return _np.zeros(capacity, dtype=_np.int64)

    @staticmethod
    def _int_fill(value: int, count: int):
        return _np.full(count, value, dtype=_np.int64)


class CompletionWheel:
    """Preallocated ring buffer of completion events.

    ``schedule(cycle, now, ref, token)`` files an event at an absolute
    cycle; ``take(cycle)`` returns the slot's parallel ``(refs, tokens)``
    lists for draining (caller clears them after iterating).  Events
    carry packed pool references (``InstrPool.ref``) so an entry left
    behind by a squashed-and-recycled slot self-invalidates.  The horizon must
    exceed the largest possible completion latency so a slot can never
    hold events for two different cycles — the constructor rounds it up
    to a power of two and asserts on violation at schedule time.
    """

    __slots__ = ("horizon", "_mask", "_nodes", "_tokens")

    def __init__(self, max_latency: int):
        horizon = 1
        while horizon <= max_latency + 1:
            horizon *= 2
        self.horizon = horizon
        self._mask = horizon - 1
        self._nodes = [[] for _ in range(horizon)]
        self._tokens = [[] for _ in range(horizon)]

    def schedule(self, cycle: int, now: int, ref: int, token: int) -> None:
        if cycle - now >= self.horizon:  # pragma: no cover - sizing bug guard
            raise AssertionError(
                f"completion latency {cycle - now} exceeds wheel horizon "
                f"{self.horizon}"
            )
        slot = cycle & self._mask
        self._nodes[slot].append(ref)
        self._tokens[slot].append(token)

    def take(self, cycle: int) -> tuple[list, list]:
        slot = cycle & self._mask
        return self._nodes[slot], self._tokens[slot]


__all__ = [
    "BACKENDS",
    "CompletionWheel",
    "HEAD",
    "InstrPool",
    "REF_MASK",
    "REF_SHIFT",
    "ST_COMPLETED",
    "ST_DEAD",
    "ST_FETCHED_MP",
    "ST_INFLIGHT",
    "ST_IN_READY",
    "ST_ISSUED_MP",
    "ST_RECOVERING",
    "ST_REISSUED_MP",
    "ST_RETIRED",
    "ST_RETIRE_GATE",
    "ST_SQUASHED",
    "TAIL",
    "resolve_backend",
]
