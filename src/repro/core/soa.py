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

Deliberately *not* columnar (measured, not assumed):

* the ready list stays a ``heapq`` of ``(eligible, order, ref)`` int
  tuples — CPython's C-implemented heap beats any Python-level
  sift-up/down over parallel arrays at window-sized occupancies;
* the rename map stays a list of ``PhysReg`` objects — tags are already
  shared write-many cells, and the broadcast network addresses them
  directly;
* the LSQ's unresolved-store subset stays a keyed dict — its entries'
  order keys would go stale on a ROB renumber, and the subset is
  near-empty in steady state;
* window positions are not stored at all — ``ReorderBuffer.index_of``
  recounts one from the links on demand, which is cheaper than keeping
  a sorted order-key column current on every dispatch and unlink;
* every column is a plain ``list``, not a typed ``array('q')`` or numpy
  ``int64`` buffer — CPython 3.11 specializes ``list`` subscripts in
  the interpreter but not those of other sequences, and a typed buffer
  boxes a fresh ``int`` on every read of a large value (order keys,
  packed refs).  A read and a write of one 258-slot column cost ~28 ns
  from a list, ~93 ns from ``array('q')`` and ~190 ns from numpy (Intel
  Xeon, CPython 3.11).  Over the detailed cells of a paper study, list
  columns cut core time ~13% against ``array('q')``; at windows of
  4096 and 8192, where numpy had been auto-selected, CI ran in less
  than half the time with lists.  No input measured favours a typed
  column.
"""

from __future__ import annotations

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

#: packed slot references: ``ref = (uid << REF_SHIFT) | handle``, where
#: ``uid`` is the fetch sequence number (``Processor.uid_counter``).  An
#: instruction has two names: its handle, used by the tables that only
#: ever hold live instructions, and its ref, held by everything that can
#: outlive it (the ready heap, the completion wheel, the pending-branch
#: lists, register consumer lists, ``fwd_store``).  A recycled slot
#: rewrites its ``ref`` column entry, so ``pool.ref[ref & REF_MASK] ==
#: ref`` iff the referenced instruction still owns the slot, and ref
#: order is fetch order.
REF_SHIFT = 32
REF_MASK = (1 << REF_SHIFT) - 1


class InstrPool:
    """Preallocated columnar store of every in-flight instruction.

    One column per dynamic-instruction field; an instruction is an
    integer handle into them.  The detailed core's fetch loop
    (``SequencerStage._fetch``) claims a slot off the LIFO free list
    ``_free`` at dispatch and links it in place, and the
    owning :class:`~repro.core.rob.ReorderBuffer` pushes it back when
    retirement or a squash unlinks it (``ReorderBuffer.unlink``, one
    call per retired instruction or per squashed range).  Handles
    :data:`HEAD` and :data:`TAIL` are the window's permanent boundary
    slots and are never claimed.

    Every column is a plain ``list`` (see the module docstring for the
    measurement): the link/ordering/liveness columns (``order``,
    ``prev``, ``next``, ``state``) that every hot-path check touches, the
    ``ref`` column, and the tag, value, address and control-state
    columns, which also hold Python objects and feed statistics and JSON
    checkpoints as plain ints.

    A freed slot keeps its ``ref`` and dead ``state`` bits until the
    slot is claimed again, so a stale ref held by the ready heap or the
    completion wheel still names a dead instruction.  The claim resets
    only the columns the claiming instruction's class can read before it
    writes them (see ``SequencerStage._fetch``); dispatch writes the four
    rename columns for every instruction.
    """

    __slots__ = (
        "capacity",
        "allocated_total",
        # link / ordering / liveness columns
        "order",
        "prev",
        "next",
        "state",
        # identity / payload columns
        "ref",
        "pc",
        "instr",
        "segment",
        # rename columns
        "src1_tag",
        "src2_tag",
        "dest_tag",
        "dest_arch",
        # execution-state columns
        "dispatch_cycle",
        "issue_count",
        "value",
        "addr",
        "prev_addr",
        "store_value",
        "fwd_store",
        # control-state columns
        "predicted_next_pc",
        "history_used",
        "ras_snapshot",
        "current_taken",
        "current_next_pc",
        "outcome_taken",
        "outcome_next_pc",
        "_free",
    )

    def __init__(self, capacity: int):
        capacity = int(capacity)
        if capacity < 3:
            raise ValueError("InstrPool needs the two boundary slots plus one")
        self.capacity = capacity
        self.allocated_total = 0
        self.order = [-1] * capacity
        self.prev = [-1] * capacity
        self.next = [-1] * capacity
        # Unallocated slots read as dead, so an accidentally retained
        # handle behaves like a squashed instruction, never a live one.
        self.state = [ST_SQUASHED] * capacity
        self.ref = [-1] * capacity
        none_col = [None] * capacity
        self.pc = [-1] * capacity
        self.instr = list(none_col)
        self.segment = list(none_col)
        self.src1_tag = list(none_col)
        self.src2_tag = list(none_col)
        self.dest_tag = list(none_col)
        self.dest_arch = list(none_col)
        self.dispatch_cycle = [0] * capacity
        self.issue_count = [0] * capacity
        self.value = list(none_col)
        self.addr = list(none_col)
        self.prev_addr = list(none_col)
        self.store_value = list(none_col)
        self.fwd_store = list(none_col)
        self.predicted_next_pc = [0] * capacity
        self.history_used = [0] * capacity
        self.ras_snapshot = list(none_col)
        self.current_taken = [False] * capacity
        self.current_next_pc = [0] * capacity
        self.outcome_taken = [False] * capacity
        self.outcome_next_pc = [0] * capacity
        # Boundary slots: alive (state 0), linked by the ROB.
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
        """Diagnostic rendering of a slot (sanitizer and test-fault messages)."""
        instr = self.instr[h]
        op = instr.op.name if instr is not None else "?"
        return f"<{self.ref[h] >> REF_SHIFT}:{self.pc[h]}:{op}>"


class CompletionWheel:
    """Preallocated ring buffer of completion events.

    The cycle loop (``Processor.run``) files an event at an absolute
    cycle by appending to slot ``cycle & _mask`` of the parallel
    ``_nodes``/``_tokens`` lists when it issues, and drains the current
    cycle's slot (then clears it) when it completes.  Events carry packed
    pool references (``InstrPool.ref``) so an entry left behind by a
    squashed-and-recycled slot self-invalidates.  The horizon exceeds
    the largest possible completion latency, rounded up to a power of
    two, so a slot never holds events for two different cycles.  The
    latencies and the cache are fixed, so every machine's horizon is
    the same (32 cycles).
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


__all__ = [
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
]
