"""Cycle-level scheduler for the six idealized models (paper Section 2).

The scheduler replays an :class:`~repro.ideal.tracegen.AnnotatedTrace`
under the hardware constraints of Section 2.2: a W-entry instruction
window, 16-wide fetch/issue/retire, a 5-stage pipeline, unlimited
renaming, oracle memory disambiguation and a perfect data cache.  The
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
Each in-flight instruction is a :class:`_Slot` (``__slots__`` object,
freed by refcount when squashed or retired).  Its ``key`` names the
value it produces:

* a correct-path slot's key is its trace sequence number (seq, >= 0).
  The window, the producers' completion cycles and the consumers
  waiting on each producer are lists indexed by seq
  (``window``, ``done_at``, ``waiters``);
* a wrong-path slot's key is ``~(mp_seq << 32 | index)`` (< 0), and a
  misprediction's false-dependence repair is keyed by its seq (>= 0).
  Both live in the ``aux_done``/``aux_waiters`` dicts, apart from the
  correct-path lists.

Ready-heap entries are ``(ready << 32 | order, slot)``: earliest issue
cycle first, then fetch order, which is unique per slot.  Squashed slots
stay where they are (heap, completion buckets, waiter lists) and are
skipped when reached.

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

import heapq
from dataclasses import dataclass
from operator import attrgetter

from ..errors import ConfigError, SimulationHang
from .models import IdealConfig, IdealModel, latency_table
from .tracegen import NO_PRODUCER, AnnotatedTrace, Misprediction, decode_internal


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


class _Slot:
    """One in-flight instruction instance in the window."""

    __slots__ = ("key", "lat", "order", "ready", "pending", "done", "squashed")

    def __init__(self, key: int, lat: int, order: int, ready: int):
        self.key = key  # correct seq, or ~(mp_seq << 32 | index) for wp
        self.lat = lat  # execution latency
        self.order = order  # fetch order: the issue tie-break
        self.ready = ready  # earliest issue cycle seen so far
        self.pending = 0  # producers not yet complete
        self.done = False
        self.squashed = False


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


def _wake(waiting: list[_Slot], cycle: int, heap: list) -> None:
    """A producer completed at ``cycle``: release its waiting consumers."""
    for slot in waiting:
        if slot.squashed:
            continue
        if cycle > slot.ready:
            slot.ready = cycle
        pending = slot.pending - 1
        slot.pending = pending
        if not pending:
            heapq.heappush(heap, (slot.ready << 32 | slot.order, slot))


class IdealScheduler:
    """Simulates one (model, window) configuration over an annotated trace."""

    def __init__(self, trace: AnnotatedTrace, model: IdealModel, config: IdealConfig):
        config.validate()
        self.trace = trace
        self.model = model
        self.config = config
        self._wastes = model.wastes_resources
        self._wp_limit = config.wrong_path_limit()

        n = len(trace)
        self.window: list[_Slot | None] = [None] * n  # unretired slot per seq
        self.done_at: list[int] = [-1] * n  # completion cycle per seq
        self.aux_done: dict[int, int] = {}  # wrong-path / FD-repair keys
        self.aux_waiters: dict[int, list[_Slot]] = {}
        self.wp_slots: dict[int, list[_Slot]] = {}  # mp seq -> its wp slots
        self.outstanding: dict[int, Misprediction] = {}  # undetected mps
        self.ready_heap: list[tuple[int, _Slot]] = []

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
        the fetch budget.
        """
        if not self.model.exploits_ci or mp.reconv_seq is None:
            return False
        if mp.reconv_seq - mp.seq >= self.config.window_size:
            return False
        if self._wastes:
            return mp.wp_reached_reconv and len(mp.wrong_path) <= self._wp_limit
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
        width = config.width
        capacity = config.window_size
        frontend = config.frontend_stages
        fd = self.model.false_dependences
        lat_table = latency_table(config.latencies)
        lat_of = [lat_table[entry.instr.opcode] for entry in trace.entries]
        mp_at: list[Misprediction | None] = [None] * n
        for seq, mp in trace.mispredictions.items():
            mp_at[seq] = mp
        dep1, dep2, depm = trace.dep1, trace.dep2, trace.depm

        window = self.window
        done_at = self.done_at
        # consumers waiting on each correct-path producer, by its seq
        waiters: list[list[_Slot] | None] = [None] * n
        aux_done = self.aux_done
        aux_waiters = self.aux_waiters
        wp_slots = self.wp_slots
        outstanding = self.outstanding
        completing: dict[int, list[_Slot]] = {}  # cycle -> slots finishing
        heap = self.ready_heap
        frontier = self.frontier
        segments = self.segments
        heappush, heappop = heapq.heappush, heapq.heappop

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
            bucket = completing.pop(cycle, None)
            if bucket:
                for slot in bucket:
                    if slot.squashed:
                        continue
                    slot.done = True
                    key = slot.key
                    if key >= 0:
                        done_at[key] = cycle
                        waiting = waiters[key]
                        if waiting is not None:  # _wake inlined
                            waiters[key] = None
                            for waiter in waiting:
                                if waiter.squashed:
                                    continue
                                if cycle > waiter.ready:
                                    waiter.ready = cycle
                                pending = waiter.pending - 1
                                waiter.pending = pending
                                if not pending:
                                    heappush(
                                        heap,
                                        (waiter.ready << 32 | waiter.order, waiter),
                                    )
                        if key in outstanding:
                            window_used -= self._detect(
                                outstanding.pop(key), cycle, youngest
                            )
                    else:
                        aux_done[key] = cycle
                        waiting = aux_waiters.pop(key, None)
                        if waiting:
                            _wake(waiting, cycle, heap)

            # -- retire: in order, completed correct-path slots
            budget = width
            while budget and retire_ptr < n:
                slot = window[retire_ptr]
                if slot is None or not slot.done:
                    break
                window[retire_ptr] = None
                retire_ptr += 1
                window_used -= 1
                budget -= 1

            # -- issue: oldest ready first, up to the issue width
            budget = width
            limit = (cycle + 1) << 32
            while heap:
                key, slot = heap[0]
                if slot.squashed:
                    heappop(heap)
                    continue
                if key >= limit:
                    break
                heappop(heap)
                done = cycle + slot.lat
                issued = completing.get(done)
                if issued is None:
                    completing[done] = [slot]
                else:
                    issued.append(slot)
                budget -= 1
                if not budget:
                    break

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
                        while youngest >= retire_ptr and window[youngest] is None:
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
                        slot = _Slot(
                            ~(mp_seq << 32 | index),
                            lat_table[item.entry.instr.opcode],
                            order,
                            cycle + frontend,
                        )
                        order += 1
                        mp_wp = wp_slots.get(mp_seq)
                        if mp_wp is None:
                            wp_slots[mp_seq] = [slot]
                        else:
                            mp_wp.append(slot)
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
                                if done > slot.ready:
                                    slot.ready = done
                                continue
                            if code < 0:
                                aux_waiters.setdefault(code, []).append(slot)
                            else:
                                waiting = waiters[code]
                                if waiting is None:
                                    waiters[code] = [slot]
                                else:
                                    waiting.append(slot)
                            slot.pending += 1
                    elif source.stalled_on is not None:
                        break
                    else:
                        seq = source.pos
                        end = source.end
                        while seq < end and window[seq] is not None:
                            seq += 1  # skip seqs already in the window
                        if seq >= end:
                            source.pos = seq
                            break
                        source.pos = seq + 1
                        slot = _Slot(seq, lat_of[seq], order, cycle + frontend)
                        order += 1
                        window[seq] = slot
                        window_used += 1
                        if seq > youngest:
                            youngest = seq
                        for code in (dep1[seq], dep2[seq], depm[seq]):
                            if code != NO_PRODUCER:
                                done = done_at[code]
                                if done >= 0:
                                    if done > slot.ready:
                                        slot.ready = done
                                else:
                                    waiting = waiters[code]
                                    if waiting is None:
                                        waiters[code] = [slot]
                                    else:
                                        waiting.append(slot)
                                    slot.pending += 1
                        if fd and outstanding:
                            self._add_false_deps(slot, seq)
                        mp = mp_at[seq]
                        if mp is not None:
                            self._on_fetch_misprediction(mp, source)
                    if not slot.pending:
                        heappush(heap, (slot.ready << 32 | slot.order, slot))
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

    def _add_false_deps(self, slot: _Slot, seq: int) -> None:
        """FD models: wrong-path writes of outstanding mispredictions
        poison matching control-independent consumers until repair."""
        trace = self.trace
        entry = trace.entries[seq]
        instr = entry.instr
        # None is never a member of a write set, so it disables the check
        rs1 = instr.rs1 if instr.reads_rs1 else None
        rs2 = instr.rs2 if instr.reads_rs2 else None
        addr = entry.addr if instr.f_load else None
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
                if done > slot.ready:
                    slot.ready = done
            else:
                self.aux_waiters.setdefault(mp_seq, []).append(slot)
                slot.pending += 1

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
                limit = min(len(mp.wrong_path), self._wp_limit)
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
        while pos < end and window[pos] is not None:
            pos += 1
        segment.pos = pos
        return pos >= end

    # ------------------------------------------------------------------
    # recovery: each returns the number of window slots it freed

    def _evict(self, seq: int) -> int:
        """Squash the youngest in-window correct instruction ``seq`` so a
        restart sequence can proceed.  The frontier is backed up so the
        victim is eventually refetched."""
        slot = self.window[seq]
        self.window[seq] = None
        slot.squashed = True
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

    def _detect(self, mp: Misprediction, cycle: int, youngest: int) -> int:
        """Misprediction detected: recover according to the model."""
        self.result.detections += 1
        if mp.seq not in self._ci:
            return self._full_squash(mp.seq, youngest)
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
            _wake(waiting, cycle + 1, self.ready_heap)
        return freed

    def _squash_wrong_path(self, mp_seq: int) -> int:
        freed = 0
        aux_done = self.aux_done
        for slot in self.wp_slots.pop(mp_seq, ()):
            if not slot.squashed:
                slot.squashed = True
                freed += 1
                aux_done.pop(slot.key, None)
        # Drop any still-queued wrong-path fetch runs for this mp.
        for source in (*self.segments, self.frontier):
            if source.wp_queue:
                source.wp_queue = [
                    run for run in source.wp_queue if run[0] != mp_seq
                ]
        return freed

    def _full_squash(self, branch_seq: int, youngest: int) -> int:
        """Squash everything younger than ``branch_seq`` and refetch."""
        self.result.full_squashes += 1
        window, done_at = self.window, self.done_at
        freed = 0
        for seq in range(branch_seq + 1, youngest + 1):
            slot = window[seq]
            if slot is not None:
                window[seq] = None
                slot.squashed = True
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
    **config_kwargs,
) -> IdealResult:
    """Convenience wrapper: simulate one model over an annotated trace.

    Pass either a ready ``config`` or :class:`IdealConfig` keyword
    arguments, not both.
    """
    if config is None:
        config = IdealConfig(**config_kwargs)
    elif config_kwargs:
        raise ConfigError(
            f"simulate() got both a config and config keywords "
            f"{sorted(config_kwargs)!r}; pass one or the other"
        )
    if model is IdealModel.ORACLE:
        trace = _strip_mispredictions(trace)
    return IdealScheduler(trace, model, config).run()


def _strip_mispredictions(trace: AnnotatedTrace) -> AnnotatedTrace:
    """Oracle prediction: same trace with no misprediction annotations."""
    return AnnotatedTrace(
        trace.program, trace.entries, trace.dep1, trace.dep2, trace.depm, {}
    )
