"""Reorder buffer for the detailed core (paper Section 3.2.2, App. A.4).

The ROB is a doubly-linked window of dynamic instructions supporting
insertion and removal at arbitrary points — the structure restart
sequences need.  An instruction is an integer *handle* into the
columns of :class:`repro.core.soa.InstrPool` and the links are two int
columns (``prev``/``next``) indexed by handle; the window boundaries
are the pool's permanent :data:`~repro.core.soa.HEAD` /
:data:`~repro.core.soa.TAIL` slots, so there are no sentinel objects.

Logical order between any two entries is decided by integer keys in the
pool's ``order`` column.  Tail appends (the hot path) take strictly
monotonic sequence numbers spaced ``_SPACING`` apart, so their keys are
never rewritten.  Mid-window restart inserts take a low-biased step into
the local gap (``lo + max(1, gap/256)``), leaving room for the
right-chaining dispatch order of a restart sequence.  A nested restart
chain can still exhaust a gap, and then one full respace renumbers the
window.  On the 25 recovery cells of the core golden
(``tests/test_recovery_golden.py``) that happens 40 times, all on the 10
``CI/loop`` and ``CI/return/loop`` cells; it never happens on BASE, CI
or CI-I there, nor on the kernel golden cells.  The ready heap
captures key *values* at push time.  Between respaces keys are stable,
so same-cycle issue arbitration depends only on logical order.  Across
a respace it does not: entries pushed before it keep their old, larger
keys and are arbitrated against the new, smaller keys of entries pushed
after it (136 such stale pops on those 10 cells).  The detailed goldens
(``tests/goldens/``) pin the current behaviour.

A slot's window *position* (``index_of``, the golden-trace instance
matching of Appendix A.3.1) is not stored anywhere: it is recounted
from the links by walking toward whichever boundary is nearer.  Only
that matching asks for a position, far less often than instructions
are dispatched and unlinked, and a sorted position index would have to
be updated on every dispatch and every unlink.

The detailed core's fetch loop (``SequencerStage._fetch``) claims,
links and keys each dispatched slot in place: a tail append takes the
next sequence number (``_next_order``), a restart insert asks
:meth:`ReorderBuffer._place` for a key in its gap.  Retirement and
squash return slots through the one unlink path,
:meth:`ReorderBuffer.unlink`, which takes a contiguous run (a squash
range, or the retiring head) and frees it youngest first.

Segmentation (Appendix A.4) is modeled for capacity: instructions are
allocated into segments of ``segment_size`` entries; a partially used or
partially squashed segment still occupies ``segment_size`` window slots,
and a segment's slots are reclaimed only when every instruction in it
has retired or been squashed.
"""

from __future__ import annotations

from .soa import HEAD, TAIL, InstrPool

_SPACING = 1 << 16

#: tail-boundary key: far above any reachable sequence number (a run
#: would need ~2^46 dispatches to approach it), so the youngest real
#: instruction always has a huge gap to the boundary and appends never
#: trigger gap maintenance.
_TAIL_ORDER = 1 << 62

#: "no link" value of the pool's ``prev``/``next`` columns (outward
#: sides of the boundary slots only — every linked slot has real links)
NO_LINK = -1


class Segment:
    """Capacity-accounting unit of the segmented ROB."""

    __slots__ = ("live",)

    def __init__(self):
        self.live = 0


class ReorderBuffer:
    """Linked window over pool handles, with order keys and segments."""

    def __init__(self, window_size: int, segment_size: int = 1):
        if window_size % segment_size:
            raise ValueError("window_size must be a multiple of segment_size")
        self.window_size = window_size
        self.segment_size = segment_size
        #: the columnar instruction store: exactly the window plus the
        #: two boundary slots, since every slot is freed the moment it
        #: is unlinked at retire/squash
        self.pool = InstrPool(window_size + 2)
        pool = self.pool
        pool.next[HEAD] = TAIL
        pool.prev[TAIL] = HEAD
        pool.prev[HEAD] = NO_LINK
        pool.next[TAIL] = NO_LINK
        pool.order[HEAD] = 0
        pool.order[TAIL] = _TAIL_ORDER
        self._next_order = _SPACING  # next tail-append sequence number
        self.count = 0  # live instructions
        self.segments_allocated = 0

    # ------------------------------------------------------------------
    # capacity

    @property
    def slots_used(self) -> int:
        if self.segment_size == 1:
            return self.count
        return self.segments_allocated * self.segment_size

    @property
    def full(self) -> bool:
        return self.slots_used >= self.window_size

    # ------------------------------------------------------------------
    # order keys

    def _respace(self) -> None:
        """Respace every key after a restart-chain gap collapse (the
        caller's slot is already linked, so it gets its key here)."""
        order_col = self.pool.order
        next_col = self.pool.next
        order = 0
        h = HEAD
        while h != TAIL:
            order_col[h] = order
            order += _SPACING
            h = next_col[h]
        self._next_order = order

    def _place(self, h: int, after: int, succ: int) -> None:
        """Key a restart insert: slot ``h``, already linked between
        ``after`` and ``succ``, steps a small fraction into the gap.
        (Tail appends take the next sequence number, ``_next_order``,
        in the fetch loop and never get here.)"""
        order_col = self.pool.order
        # The low bias leaves room for the right-chaining dispatch order
        # of a restart sequence (each instruction inserted after the
        # previous one): hundreds of entries fit before the gap thins.
        # Nested restart chains on the loop-heuristic machines do
        # exhaust gaps; a single respace then restores full spacing
        # everywhere, but ready-heap entries pushed before it keep
        # their old keys (see the module docstring).
        lo, hi = order_col[after], order_col[succ]
        gap = hi - lo
        if gap < 2:
            self._respace()
            return
        order_col[h] = lo + ((gap >> 8) or 1)

    # ------------------------------------------------------------------
    # list structure: the one unlink path

    def unlink(self, first: int, last: int) -> None:
        """Unlink the run of linked slots from ``first`` to ``last``
        (inclusive, in window order), release their window slots, and
        return them to the pool's free list, youngest first.

        Retirement unlinks the head (``first == last``); a squash
        unlinks its whole range in one call.  The slots' ``ref`` and
        dead ``state`` bits survive until they are claimed again, so
        stale heap/wheel references validate (and skip) against them;
        fetch resets their columns when it claims them.
        """
        pool = self.pool
        prev_col = pool.prev
        next_col = pool.next
        before = prev_col[first]
        after = next_col[last]
        next_col[before] = after
        prev_col[after] = before
        free = pool._free
        segments = pool.segment
        h = last
        released = 1
        while True:
            free.append(h)
            segment = segments[h]
            if segment is not None:
                segment.live -= 1
                if segment.live == 0:
                    self.segments_allocated -= 1
            if h == first:
                break
            h = prev_col[h]
            released += 1
        self.count -= released

    # ------------------------------------------------------------------
    # traversal

    @property
    def head(self) -> int | None:
        h = self.pool.next[HEAD]
        return h if h != TAIL else None

    @property
    def tail(self) -> int | None:
        h = self.pool.prev[TAIL]
        return h if h != HEAD else None

    def iter_from(self, h: int):
        """Iterate handles from ``h`` (inclusive) to the tail boundary."""
        next_col = self.pool.next
        while h != TAIL and h != NO_LINK:
            yield h
            h = next_col[h]

    def iter_all(self):
        yield from self.iter_from(self.pool.next[HEAD])

    def index_of(self, h: int) -> int:
        """Window position of a linked slot: the number of alive
        instructions logically older than it.

        Walks the links from ``h`` toward both boundaries in lockstep and
        stops at whichever is reached first: ``k`` ``prev`` steps to the
        head mean position ``k``; ``k`` ``next`` steps to the tail mean
        position ``count - 1 - k``.  The cost is the distance to the
        nearer end, and ``count`` must be current (fetch bumps it as it
        links each slot).
        """
        prev_col = self.pool.prev
        next_col = self.pool.next
        back = fwd = h
        steps = 0
        while True:
            back = prev_col[back]
            if back == HEAD:
                return steps
            fwd = next_col[fwd]
            if fwd == TAIL:
                return self.count - 1 - steps
            steps += 1

    def precedes(self, a: int, b: int) -> bool:
        """True if slot ``a`` is logically older than slot ``b``."""
        return self.pool.order[a] < self.pool.order[b]
