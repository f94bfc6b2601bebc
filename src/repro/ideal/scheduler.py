"""Cycle-level scheduler for the six idealized models (paper Section 2).

The scheduler replays an :class:`~repro.ideal.tracegen.AnnotatedTrace`
under the hardware constraints of Section 2.2: a W-entry instruction
window, 16-wide (``WIDTH``) fetch/issue/retire, a 5-stage pipeline,
unlimited renaming, oracle memory disambiguation and a perfect data cache.  The
six models differ only in how fetch and dependence repair behave around
branch mispredictions:

* ``oracle``    — mispredictions never happen.
* ``base``      — every misprediction squashes everything younger.
* ``nWR-*``     — oracle removes incorrect control-dependent (wrong-path)
  instructions: fetch skips directly to the reconvergent point.
* ``WR-*``      — wrong-path instructions are fetched, occupy the window
  and issue bandwidth, and are squashed at detection.
* ``*-FD``      — wrong-path register/memory writes poison matching
  control-independent consumers until detection (+1 cycle repair).
* ``*-nFD``     — false dependences are hidden by oracle.

Mispredicted branches whose wrong path never reaches the reconvergent
point (or that have none, e.g. indirect jumps) fall back to a full
squash in every model, since the machine cannot locate control-
independent work for them.

Data layout
-----------
An in-flight instruction instance lives in plain-list *slot columns*
indexed by a slot id: the key of the value it produces, its latency,
its earliest issue cycle so far, its count of producers not yet
complete, and the ref that owns the id.  Ids come off a free list of
``window_size`` ids; retire and squash push them back.  Every id taken
or returned moves the window occupancy with it, and fetch never fills
the window past its size, so the free list never runs dry and the
per-instance state is bounded by the window, not by the number of
instances fetched.

* A correct-path instance's key is its trace sequence number (seq,
  >= 0).  The window (``window[seq]``: slot id, or -1), the producers'
  completion cycles and the consumers waiting on each producer are
  lists indexed by seq (``window``, ``done_at``, ``waiters``); the
  instance has completed iff ``done_at[seq] >= 0``.
* A wrong-path instance's key is ``~(mp_seq << 32 | index)`` (< 0), and
  a misprediction's false-dependence repair is keyed by its seq (>= 0).
  Both live in the ``aux_done``/``aux_waiters`` dicts, apart from the
  correct-path lists.

Every side structure (waiter lists, ``wp_slots``, the issue queue, the
completion ring) holds a *packed ref* ``order << shift | id``, where
``order`` is the instance's fetch order (unique, the issue tie-break)
and ``shift`` is just wide enough for the ids.  A ref is live iff
``ref_of[ref & mask] == ref``: freeing an id writes -1 there and
reusing it writes a ref with a newer order, so squashed instances need
no flag and are skipped wherever they are reached.

Issue order is (ready cycle, fetch order).  The issue queue is a dict
of ``ready cycle -> [refs]``: each cycle that cycle's bucket is sorted
(refs sort by fetch order) and appended to a backlog, and up to
``WIDTH`` live refs issue from its front.  Every push has ``ready >=
cycle``, so the backlog stays sorted.  Issued refs wait on a ring of
``RING`` lists indexed by completion cycle (latencies are below
``RING``).

Restart segments evict the youngest correct-path instruction when the
window is full (paper Section 3.2.2).  ``run()`` keeps a pointer to the
youngest seq with the invariant that **no seq above the pointer is in
the window**: fetching a seq raises it, and eviction walks it down over
retired or squashed seqs, so finding the victim is amortized O(1)
instead of a scan of the whole window.

``run()`` holds the hot state in locals of one inlined complete/retire/
issue/fetch loop: the cycle, the retire pointer, the window occupancy,
the fetch order, the youngest pointer and the wrong-path fetch count.
The rare recovery paths (detection, full squash, eviction) are methods
that mutate the shared containers in place and return how many window
slots they freed.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from ..errors import SimulationHang
from .models import FRONTEND_STAGES, LATENCY_TABLE, WIDTH, IdealConfig, IdealModel
from .tracegen import NO_PRODUCER, AnnotatedTrace, Misprediction, decode_internal

#: completion ring length: the power of two above every execution latency
RING = 1 << max(LATENCY_TABLE).bit_length()


@dataclass
class IdealResult:
    """Output of one idealized-model simulation."""

    model: IdealModel
    window_size: int
    cycles: int
    retired: int
    fetched_wrong_path: int = 0
    full_squashes: int = 0
    selective_squashes: int = 0
    detections: int = 0

    @property
    def ipc(self) -> float:
        return self.retired / self.cycles if self.cycles else 0.0


class _Segment:
    """A fetch source: a range of correct-trace seqs plus queued wrong-path
    runs, with optional stall on an unresolved full-squash branch."""

    __slots__ = ("start", "end", "pos", "wp_queue", "stalled_on")

    def __init__(self, start: int, end: int):
        self.start = start
        self.end = end
        self.pos = start
        #: FIFO of [mp_seq, next_index, stop] wrong-path runs
        self.wp_queue: list[list[int]] = []
        self.stalled_on: int | None = None


_by_pos = attrgetter("pos")


class IdealScheduler:
    """Simulates one (model, window) configuration over an annotated trace."""

    def __init__(self, trace: AnnotatedTrace, model: IdealModel, config: IdealConfig):
        config.validate()
        self.trace = trace
        self.model = model
        self.config = config
        self._wastes = model.wastes_resources

        n = len(trace)
        self.window: list[int] = [-1] * n  # slot id per unretired seq
        self.done_at: list[int] = [-1] * n  # completion cycle per seq
        self.aux_done: dict[int, int] = {}  # wrong-path / FD-repair keys
        self.aux_waiters: dict[int, list[int]] = {}
        self.wp_slots: dict[int, list[int]] = {}  # mp seq -> its wp refs
        self.outstanding: dict[int, Misprediction] = {}  # undetected mps
        # issue queue: ready cycle -> refs becoming ready then
        self.ready_buckets: dict[int, list[int]] = {}

        # slot columns, indexed by slot id (one id per window entry)
        slots = config.window_size
        self.shift = (slots - 1).bit_length()
        self.mask = (1 << self.shift) - 1
        self.ref_of: list[int] = [-1] * slots  # live ref owning the id
        self.key_of: list[int] = [0] * slots  # seq, or ~(mp_seq << 32 | index)
        self.lat_of: list[int] = [0] * slots  # execution latency
        self.ready_of: list[int] = [0] * slots  # earliest issue cycle so far
        self.pending_of: list[int] = [0] * slots  # producers not yet complete
        self.free: list[int] = list(range(slots - 1, -1, -1))

        self.frontier = _Segment(0, n)
        self.segments: list[_Segment] = []  # pending/active restart segments

        #: mispredictions for which the machine finds control-independent work
        self._ci = {
            seq for seq, mp in trace.mispredictions.items() if self._ci_case(mp)
        }
        self.result = IdealResult(model, config.window_size, 0, 0)

    def _ci_case(self, mp: Misprediction) -> bool:
        """Does the machine find control-independent work for this mp?

        Requires a reconvergent point whose correct control-dependent
        path fits in the window (otherwise the restart sequence would
        evict every control-independent instruction — paper Table 2
        counts exactly the mispredictions that reconverge *in window*),
        and, for WR models, a wrong path that actually reaches it within
        the wrong-path fetch budget, which is the window size.
        """
        if not self.model.exploits_ci or mp.reconv_seq is None:
            return False
        if mp.reconv_seq - mp.seq >= self.config.window_size:
            return False
        if self._wastes:
            return mp.wp_reached_reconv and len(mp.wrong_path) <= self.config.window_size
        return True

    # ------------------------------------------------------------------
    # the cycle loop

    def run(self, max_cycles: int = 50_000_000) -> IdealResult:
        """Simulate the whole trace (once per scheduler) and return the
        result; raises :class:`~repro.errors.SimulationHang` with kind
        ``"cycle-limit"`` past ``max_cycles``."""
        trace = self.trace
        n = len(trace)
        config = self.config
        width = WIDTH
        capacity = config.window_size
        frontend = FRONTEND_STAGES
        fd = self.model.false_dependences
        lat_table = LATENCY_TABLE
        seq_lat = [lat_table[entry.instr.opcode] for entry in trace.entries]
        mp_at: list[Misprediction | None] = [None] * n
        for seq, mp in trace.mispredictions.items():
            mp_at[seq] = mp
        dep1, dep2, depm = trace.dep1, trace.dep2, trace.depm

        window = self.window
        done_at = self.done_at
        # refs waiting on each correct-path producer, by its seq
        waiters: list[list[int] | None] = [None] * n
        aux_done = self.aux_done
        aux_waiters = self.aux_waiters
        wp_slots = self.wp_slots
        outstanding = self.outstanding
        buckets = self.ready_buckets
        backlog: list[int] = []  # ready refs, sorted by (ready, order)
        ring: list[list[int]] = [[] for _ in range(RING)]  # by completion cycle
        ring_mask = RING - 1
        shift, mask = self.shift, self.mask
        ref_of, key_of, lat_of = self.ref_of, self.key_of, self.lat_of
        ready_of, pending_of = self.ready_of, self.pending_of
        free = self.free
        frontier = self.frontier
        segments = self.segments

        cycle = retire_ptr = window_used = order = fetched_wrong = 0
        youngest = -1  # no seq above it is in the window
        while retire_ptr < n:
            if cycle > max_cycles:
                raise SimulationHang(
                    f"{self.model.value}: exceeded {max_cycles} cycles "
                    f"(retired {retire_ptr}/{n})",
                    kind="cycle-limit",
                )

            # -- complete: publish results, wake consumers, detect mps
            completing = ring[cycle & ring_mask]
            if completing:
                ring[cycle & ring_mask] = []
                for ref in completing:
                    sid = ref & mask
                    if ref_of[sid] != ref:
                        continue
                    key = key_of[sid]
                    if key >= 0:
                        done_at[key] = cycle
                        waiting = waiters[key]
                        waiters[key] = None
                    else:
                        aux_done[key] = cycle
                        waiting = aux_waiters.pop(key, None)
                    if waiting:  # _release inlined
                        for waiter in waiting:
                            sid = waiter & mask
                            if ref_of[sid] != waiter:
                                continue
                            ready = ready_of[sid]
                            if cycle > ready:
                                ready_of[sid] = ready = cycle
                            pending = pending_of[sid] - 1
                            pending_of[sid] = pending
                            if not pending:
                                bucket = buckets.get(ready)
                                if bucket is None:
                                    buckets[ready] = [waiter]
                                else:
                                    bucket.append(waiter)
                    if key >= 0 and key in outstanding:
                        window_used -= self._detect(outstanding.pop(key), cycle)

            # -- retire: in order, completed correct-path instances
            budget = width
            while budget and retire_ptr < n:
                sid = window[retire_ptr]
                if sid < 0 or done_at[retire_ptr] < 0:
                    break
                window[retire_ptr] = -1
                ref_of[sid] = -1
                free.append(sid)
                retire_ptr += 1
                window_used -= 1
                budget -= 1

            # -- issue: oldest ready first, up to the issue width
            bucket = buckets.pop(cycle, None)
            if bucket is not None:
                bucket.sort()  # refs of one ready cycle sort by fetch order
                if backlog:
                    backlog += bucket
                else:
                    backlog = bucket
            if backlog:
                budget = width
                taken = 0
                for ref in backlog:
                    taken += 1
                    sid = ref & mask
                    if ref_of[sid] != ref:
                        continue
                    ring[(cycle + lat_of[sid]) & ring_mask].append(ref)
                    budget -= 1
                    if not budget:
                        break
                del backlog[:taken]

            # -- fetch: oldest source first; only it may evict younger
            # window contents to make room (paper Section 3.2.2).  Most
            # cycles have no restart segments in flight: skip the sort.
            budget = width
            sources = (
                sorted([*segments, frontier], key=_by_pos) if segments
                else (frontier,)
            )
            may_evict = True
            for source in sources:
                while budget:
                    if window_used >= capacity:
                        if not may_evict:
                            break
                        while youngest >= retire_ptr and window[youngest] < 0:
                            youngest -= 1
                        if youngest < retire_ptr or youngest <= source.pos:
                            break
                        window_used -= self._evict(youngest)
                        youngest -= 1
                    queue = source.wp_queue
                    if queue:
                        run = queue[0]
                        mp_seq, index, stop = run
                        if index + 1 == stop:
                            queue.pop(0)
                        else:
                            run[1] = index + 1
                        item = mp_at[mp_seq].wrong_path[index]
                        sid = free.pop()
                        ref = order << shift | sid
                        order += 1
                        ref_of[sid] = ref
                        key_of[sid] = ~(mp_seq << 32 | index)
                        lat_of[sid] = lat_table[item.entry.instr.opcode]
                        ready = cycle + frontend
                        pending = 0
                        mp_wp = wp_slots.get(mp_seq)
                        if mp_wp is None:
                            wp_slots[mp_seq] = [ref]
                        else:
                            mp_wp.append(ref)
                        window_used += 1
                        fetched_wrong += 1
                        for code in (item.src1, item.src2, item.mem):
                            if code == NO_PRODUCER:
                                continue
                            if code < 0:  # an earlier instruction of this path
                                code = ~(mp_seq << 32 | decode_internal(code))
                                done = aux_done.get(code, -1)
                            else:
                                done = done_at[code]
                            if done >= 0:
                                if done > ready:
                                    ready = done
                                continue
                            if code < 0:
                                aux_waiters.setdefault(code, []).append(ref)
                            else:
                                waiting = waiters[code]
                                if waiting is None:
                                    waiters[code] = [ref]
                                else:
                                    waiting.append(ref)
                            pending += 1
                    elif source.stalled_on is not None:
                        break
                    else:
                        seq = source.pos
                        end = source.end
                        while seq < end and window[seq] >= 0:
                            seq += 1  # skip seqs already in the window
                        if seq >= end:
                            source.pos = seq
                            break
                        source.pos = seq + 1
                        sid = free.pop()
                        ref = order << shift | sid
                        order += 1
                        ref_of[sid] = ref
                        key_of[sid] = seq
                        lat_of[sid] = seq_lat[seq]
                        ready = cycle + frontend
                        pending = 0
                        window[seq] = sid
                        window_used += 1
                        if seq > youngest:
                            youngest = seq
                        # the three correct-path producers (NO_PRODUCER < 0)
                        code = dep1[seq]
                        if code >= 0:
                            done = done_at[code]
                            if done >= 0:
                                if done > ready:
                                    ready = done
                            else:
                                waiting = waiters[code]
                                if waiting is None:
                                    waiters[code] = [ref]
                                else:
                                    waiting.append(ref)
                                pending += 1
                        code = dep2[seq]
                        if code >= 0:
                            done = done_at[code]
                            if done >= 0:
                                if done > ready:
                                    ready = done
                            else:
                                waiting = waiters[code]
                                if waiting is None:
                                    waiters[code] = [ref]
                                else:
                                    waiting.append(ref)
                                pending += 1
                        code = depm[seq]
                        if code >= 0:
                            done = done_at[code]
                            if done >= 0:
                                if done > ready:
                                    ready = done
                            else:
                                waiting = waiters[code]
                                if waiting is None:
                                    waiters[code] = [ref]
                                else:
                                    waiting.append(ref)
                                pending += 1
                        if fd and outstanding:
                            ready, pending = self._add_false_deps(
                                ref, seq, ready, pending
                            )
                        mp = mp_at[seq]
                        if mp is not None:
                            self._on_fetch_misprediction(mp, source)
                    ready_of[sid] = ready
                    pending_of[sid] = pending
                    if not pending:
                        bucket = buckets.get(ready)
                        if bucket is None:
                            buckets[ready] = [ref]
                        else:
                            bucket.append(ref)
                    budget -= 1
                if not budget:
                    break
                may_evict = False
            if segments:
                segments[:] = [s for s in segments if not self._segment_done(s)]

            cycle += 1

        result = self.result
        result.cycles = cycle
        result.retired = retire_ptr
        result.fetched_wrong_path = fetched_wrong
        return result

    # ------------------------------------------------------------------
    # fetch-side helpers

    def _add_false_deps(
        self, ref: int, seq: int, ready: int, pending: int
    ) -> tuple[int, int]:
        """FD models: wrong-path writes of outstanding mispredictions
        poison matching control-independent consumers until repair.
        Returns the consumer's updated ready cycle and pending count."""
        trace = self.trace
        entry = trace.entries[seq]
        instr = entry.instr
        # None is never a member of a write set, so it disables the check
        rs1 = instr.rs1 if instr.reads_rs1 else None
        rs2 = instr.rs2 if instr.reads_rs2 else None
        addr = entry.addr if instr.is_load else None
        dep1, dep2, depm = trace.dep1[seq], trace.dep2[seq], trace.depm[seq]
        for mp in self.outstanding.values():
            reconv = mp.reconv_seq
            if reconv is None or seq < reconv:
                continue
            mp_seq = mp.seq
            if not (
                (rs1 in mp.false_regs and dep1 <= mp_seq)
                or (rs2 in mp.false_regs and dep2 <= mp_seq)
                or (addr in mp.false_addrs and depm <= mp_seq)
            ):
                continue
            done = self.aux_done.get(mp_seq)
            if done is not None:
                if done > ready:
                    ready = done
            else:
                self.aux_waiters.setdefault(mp_seq, []).append(ref)
                pending += 1
        return ready, pending

    def _on_fetch_misprediction(self, mp: Misprediction, source: _Segment) -> None:
        """A mispredicted control instruction was just fetched from ``source``."""
        self.outstanding[mp.seq] = mp
        wastes = self._wastes
        if mp.seq in self._ci:
            if wastes and mp.wrong_path:
                source.wp_queue.append([mp.seq, 0, len(mp.wrong_path)])
            # CI fetching resumes past the reconvergent point (skipping the
            # correct CD path, which is released when the mp is detected).
            if mp.reconv_seq > source.pos:
                source.pos = min(mp.reconv_seq, source.end)
        else:
            # Full-squash misprediction: follow the predicted path as far as
            # it goes (WR models), then stall until detection.
            if wastes:
                limit = min(len(mp.wrong_path), self.config.window_size)
                if limit:
                    source.wp_queue.append([mp.seq, 0, limit])
                # base with a reconvergent wrong path keeps fetching the
                # (doomed) post-reconvergence stream speculatively.
                if (
                    self.model is IdealModel.BASE
                    and mp.reconv_seq is not None
                    and mp.wp_reached_reconv
                ):
                    if mp.reconv_seq > source.pos:
                        source.pos = min(mp.reconv_seq, source.end)
                    return
            source.stalled_on = mp.seq

    def _segment_done(self, segment: _Segment) -> bool:
        if segment.wp_queue or segment.stalled_on is not None:
            return False
        window = self.window
        pos, end = segment.pos, segment.end
        while pos < end and window[pos] >= 0:
            pos += 1
        segment.pos = pos
        return pos >= end

    # ------------------------------------------------------------------
    # recovery: each returns the number of window slots it freed

    def _release(self, waiting: list[int], cycle: int) -> None:
        """A producer completed at ``cycle``: wake its live waiting refs."""
        mask, ref_of = self.mask, self.ref_of
        ready_of, pending_of = self.ready_of, self.pending_of
        buckets = self.ready_buckets
        for ref in waiting:
            sid = ref & mask
            if ref_of[sid] != ref:
                continue
            ready = ready_of[sid]
            if cycle > ready:
                ready_of[sid] = ready = cycle
            pending = pending_of[sid] - 1
            pending_of[sid] = pending
            if not pending:
                buckets.setdefault(ready, []).append(ref)

    def _evict(self, seq: int) -> int:
        """Squash the youngest in-window correct instruction ``seq`` so a
        restart sequence can proceed.  The frontier is backed up so the
        victim is eventually refetched."""
        sid = self.window[seq]
        self.window[seq] = -1
        self.ref_of[sid] = -1
        self.free.append(sid)
        self.done_at[seq] = -1
        freed = 1
        if seq in self.outstanding:
            del self.outstanding[seq]
            freed += self._squash_wrong_path(seq)
        frontier = self.frontier
        if frontier.stalled_on is not None and frontier.stalled_on >= seq:
            frontier.stalled_on = None
        frontier.pos = min(frontier.pos, seq)
        frontier.wp_queue = [run for run in frontier.wp_queue if run[0] < seq]
        return freed

    def _detect(self, mp: Misprediction, cycle: int) -> int:
        """Misprediction detected: recover according to the model."""
        self.result.detections += 1
        if mp.seq not in self._ci:
            return self._full_squash(mp.seq)
        freed = self._squash_wrong_path(mp.seq)
        self.result.selective_squashes += 1
        # Release the correct control-dependent path for fetch.
        segment = _Segment(mp.seq + 1, mp.reconv_seq)
        if not self._segment_done(segment):
            self.segments.append(segment)
        # False dependences on this mp are repaired one cycle later.
        self.aux_done[mp.seq] = cycle + 1
        waiting = self.aux_waiters.pop(mp.seq, None)
        if waiting:
            self._release(waiting, cycle + 1)
        return freed

    def _squash_wrong_path(self, mp_seq: int) -> int:
        freed = 0
        mask, ref_of, key_of = self.mask, self.ref_of, self.key_of
        free, aux_done = self.free, self.aux_done
        for ref in self.wp_slots.pop(mp_seq, ()):
            sid = ref & mask
            if ref_of[sid] == ref:
                ref_of[sid] = -1
                free.append(sid)
                freed += 1
                aux_done.pop(key_of[sid], None)
        # Drop any still-queued wrong-path fetch runs for this mp.
        for source in (*self.segments, self.frontier):
            if source.wp_queue:
                source.wp_queue = [
                    run for run in source.wp_queue if run[0] != mp_seq
                ]
        return freed

    def _full_squash(self, branch_seq: int) -> int:
        """Squash everything younger than ``branch_seq`` and refetch."""
        self.result.full_squashes += 1
        window, done_at = self.window, self.done_at
        ref_of, key_of, free = self.ref_of, self.key_of, self.free
        freed = 0
        # one pass over the slot ids: the window is sparse in seq space
        for sid, ref in enumerate(ref_of):
            if ref >= 0:
                seq = key_of[sid]
                if seq > branch_seq:
                    window[seq] = -1
                    ref_of[sid] = -1
                    free.append(sid)
                    done_at[seq] = -1
                    freed += 1
        for mp_seq in [m for m in self.wp_slots if m >= branch_seq]:
            freed += self._squash_wrong_path(mp_seq)
        for mp_seq in [m for m in self.outstanding if m > branch_seq]:
            del self.outstanding[mp_seq]
        # Cancel restart segments beyond the squash point; truncate those
        # that span it (the frontier refetches everything past the branch).
        kept: list[_Segment] = []
        for segment in self.segments:
            if segment.start > branch_seq:
                continue
            segment.end = min(segment.end, branch_seq + 1)
            segment.wp_queue = [
                run for run in segment.wp_queue if run[0] <= branch_seq
            ]
            if segment.stalled_on is not None and segment.stalled_on >= branch_seq:
                segment.stalled_on = None
            if not self._segment_done(segment):
                kept.append(segment)
        self.segments[:] = kept
        frontier = self.frontier
        frontier.pos = branch_seq + 1
        frontier.wp_queue = []
        frontier.stalled_on = None
        return freed


def simulate(
    trace: AnnotatedTrace,
    model: IdealModel,
    config: IdealConfig | None = None,
) -> IdealResult:
    """Convenience wrapper: simulate one model over an annotated trace."""
    if config is None:
        config = IdealConfig()
    if model is IdealModel.ORACLE:
        trace = _strip_mispredictions(trace)
    return IdealScheduler(trace, model, config).run()


def _strip_mispredictions(trace: AnnotatedTrace) -> AnnotatedTrace:
    """Oracle prediction: same trace with no misprediction annotations."""
    return AnnotatedTrace(
        trace.program, trace.entries, trace.dep1, trace.dep2, trace.depm, {}
    )
