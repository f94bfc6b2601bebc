"""Frontend/sequencer stage: fetch, rename, predict, context management.

The sequencer owns the machine's notion of "where fetch goes next": the
frontier context during normal operation, and a stack of restart /
redispatch contexts while mispredictions are being serviced (paper
Sections 3.2, 4.1; Appendix A.1).  One fetch loop,
:meth:`SequencerStage._fetch`, serves the frontier and every restart:
it claims a pool slot, links it into the reorder buffer either at the
tail (frontier) or into a restart gap, renames through the context's
map and predicts.  Context fields that name instructions (``branch``,
``reconv``, ``insert_point``, ``walk_cursor``) hold pool handles that
are always live or None: every squash path prunes/repairs contexts
before the next allocation can recycle a slot (the redispatch walk
cursor is advanced eagerly at squash time — see
``RecoveryStage._squash_after``).
"""

from __future__ import annotations

from heapq import heappush

from ...errors import PoolExhausted
from ...ideal.models import WIDTH
from ...isa import Op
from ..regfile import PhysReg
from ..rob import _SPACING, Segment
from ..soa import HEAD, REF_SHIFT, ST_DEAD, ST_IN_READY, ST_RECOVERING, TAIL


class _Context:
    """A fetch context: the frontier, or one restart/redispatch sequence."""

    __slots__ = (
        "branch",
        "reconv",
        "insert_point",
        "fetch_pc",
        "ghr",
        "rmap",
        "segment",
        "stalled",
        "phase",  # "frontier" | "restart" | "redispatch"
        "walk_cursor",
        "walk_ras",
        "start_cycle",
        "inserted",
    )

    def __init__(self, fetch_pc: int, ghr: int, rmap: list):
        self.branch: int | None = None
        self.reconv: int | None = None
        self.insert_point: int | None = None
        self.fetch_pc = fetch_pc
        self.ghr = ghr
        self.rmap = rmap
        self.segment: Segment | None = None
        self.stalled = False
        self.phase = "frontier"
        self.walk_cursor: int | None = None
        self.walk_ras: list[int] | None = None
        self.start_cycle = 0
        self.inserted = 0


class SequencerStage:
    """Fetch/dispatch methods mixed into the Processor facade."""

    # ==================================================================
    # sequencer: frontier fetch, restart fetch, redispatch walk

    def _sequencer_phase(self) -> None:
        if self.contexts:
            ctx = self._active_context()
            if ctx is not self._last_active or self._needs_remap:
                self._reactivate(ctx)
                self._last_active = ctx
                self._needs_remap = False
            if ctx.phase == "restart":
                self._fetch(ctx)
            if ctx is self._active_context() and ctx.phase == "redispatch":
                self._redispatch_walk(ctx)
            return
        self._last_active = None
        self._fetch(self.frontier)

    def _fetch(self, ctx: _Context, budget: int = WIDTH) -> None:
        """Fetch, claim, rename and dispatch up to ``budget`` instructions
        into ``ctx`` — the one dispatch path.

        The frontier appends at the window tail and stops when the
        window is full or fetch stalls (HALT, or a pc off the program: an
        implicit HALT).  A restart context inserts after its insert
        point; when the window is full it squashes the youngest
        instruction to make room (``_squash_youngest_ci``), and it
        finishes (``_finish_restart``) once fetch reaches its
        reconvergent point or stalls.

        Each instruction claims a free pool slot in place: identity,
        links and order key (and its segment on a segmented ROB), then
        only the columns its class can read before it writes them —
        ``state`` and ``issue_count`` always;
        ``ras_snapshot`` (``None``) on non-control instructions, whose
        retirement still reads it; ``fwd_store`` on loads and ``addr`` on
        stores, which a store's replay and re-execution read.  Rename
        writes all four rename columns, and a control instruction's
        prediction writes its control columns; ``value`` and the outcome
        columns are written at execution, before anything reads them.
        """
        pool = self.pool
        state = pool.state
        restart = ctx.phase == "restart"
        if restart:
            reconv = ctx.reconv
            if reconv is not None and state[reconv] & ST_DEAD:
                ctx.reconv = reconv = None
            if reconv is None:
                # The reconvergent point is gone: this restart is simply
                # the window tail, so it continues as the frontier.
                self._context_to_frontier(ctx)
                return
            reconv_pc = pool.pc[reconv]
            after = ctx.insert_point
        else:
            if ctx.stalled:
                return
            reconv_pc = -1  # only a restart stops at a reconvergent point
            after = pool.prev[TAIL]
        rob = self.rob
        window = rob.window_size
        seg_size = rob.segment_size
        unsegmented = seg_size == 1
        count = rob.count
        next_order = rob._next_order
        code = self._code
        code_len = self._code_len
        free_pop = pool._free.pop
        ref_col = pool.ref
        pc_col = pool.pc
        instr_col = pool.instr
        dispatch_col = pool.dispatch_cycle
        issue_count = pool.issue_count
        prev_col = pool.prev
        next_col = pool.next
        order_col = pool.order
        segment_col = pool.segment
        src1_col = pool.src1_tag
        src2_col = pool.src2_tag
        dest_arch_col = pool.dest_arch
        dest_tag_col = pool.dest_tag
        ras_col = pool.ras_snapshot
        predicted_col = pool.predicted_next_pc
        history_col = pool.history_used
        taken_col = pool.current_taken
        next_pc_col = pool.current_next_pc
        lsq_add = self.lsq.add
        incomplete = self._incomplete_branches
        frontend = self.frontend
        ras_snapshot = frontend.ras.snapshot
        gshare = frontend.gshare
        gtable = gshare.table
        gmask = gshare._index_mask
        hmask = gshare.history.mask
        oracle_history = self.config.oracle_global_history
        halt = Op.HALT
        ready = self._ready
        cycle = self.cycle
        eligible = cycle + 2
        rmap = ctx.rmap
        segment = ctx.segment
        fetch_pc = ctx.fetch_pc
        stalled = ctx.stalled
        ghr = ctx.ghr
        first_uid = uid = self.uid_counter
        finish = False
        while budget > 0:
            if stalled:
                finish = restart
                break
            if restart and fetch_pc == reconv_pc:
                finish = True
                break
            if (
                count >= window
                if unsegmented
                else rob.segments_allocated * seg_size >= window
            ):
                if not restart:
                    break
                ctx.insert_point = after
                rob.count = count
                made_room = self._squash_youngest_ci(ctx)
                count = rob.count
                if not made_room:
                    break
                continue
            if not 0 <= fetch_pc < code_len:
                stalled = True
                finish = restart
                break
            instr = code[fetch_pc]

            # -- claim, link and key the slot
            try:
                h = free_pop()
            except IndexError:
                raise PoolExhausted(
                    "instruction pool exhausted — a retired or squashed "
                    "slot was never freed",
                    capacity=pool.capacity,
                    live=pool.live,
                ) from None
            ref = (uid << REF_SHIFT) | h
            ref_col[h] = ref
            pc_col[h] = fetch_pc
            instr_col[h] = instr
            dispatch_col[h] = cycle
            issue_count[h] = 0
            succ = next_col[after]
            prev_col[h] = after
            next_col[h] = succ
            next_col[after] = h
            prev_col[succ] = h
            if succ == TAIL:
                # A tail append takes the next sequence number: no gap
                # math, never a respace.
                order_col[h] = next_order
                next_order += _SPACING
            else:
                rob._next_order = next_order
                rob._place(h, after, succ)
                next_order = rob._next_order
            count += 1
            if not unsegmented:
                # (Unsegmented, capacity is exactly ``count``: no Segment
                # per slot, and every slot's segment column stays None.)
                if segment is None or segment.live >= seg_size:
                    segment = Segment()
                    rob.segments_allocated += 1
                segment.live += 1
                segment_col[h] = segment
            after = h

            # -- rename
            if instr.reads_rs1:
                t1 = rmap[instr.rs1]
                t1.consumers.append(ref)
            else:
                t1 = None
            if instr.reads_rs2:
                t2 = rmap[instr.rs2]
                t2.consumers.append(ref)
            else:
                t2 = None
            src1_col[h] = t1
            src2_col[h] = t2
            dest = instr.dest
            dest_arch_col[h] = dest
            if dest is not None:
                tag = PhysReg(ref)
                rmap[dest] = tag
                dest_tag_col[h] = tag
            else:
                dest_tag_col[h] = None

            if instr.is_mem:
                lsq_add(h)
                if instr.is_load:
                    pool.fwd_store[h] = None
                else:
                    pool.addr[h] = None

            # -- predict
            if instr.is_control:
                ras_col[h] = ras_snapshot()
                if instr.is_branch:
                    # Conditional branch: one gshare table read and an
                    # in-place history push, without FrontEnd.predict's
                    # dispatch chain and Prediction wrapper.
                    history = ghr
                    if oracle_history:
                        rob.count = count
                        entry_index = self._golden_index(h)
                        if 0 <= entry_index < len(self.golden.history_before):
                            history = self.golden.history_before[entry_index]
                    history_col[h] = history
                    taken = gtable[(fetch_pc ^ history) & gmask] >= 2
                    next_pc = instr.target if taken else fetch_pc + 1
                    predicted_col[h] = next_pc
                    taken_col[h] = taken
                    next_pc_col[h] = next_pc
                    ghr = ((ghr << 1) | taken) & hmask
                    if instr.target <= fetch_pc:
                        # Backward branch: remember loop top / exit targets.
                        self._loop_targets.add(next_pc)
                else:
                    history_col[h] = ghr
                    prediction = frontend.predict(instr, fetch_pc, ghr)
                    next_pc = prediction.next_pc
                    predicted_col[h] = next_pc
                    taken_col[h] = prediction.taken
                    next_pc_col[h] = next_pc
                    if instr.is_return:
                        self._return_targets.add(next_pc)
                fetch_pc = next_pc
                if instr.is_branch or instr.is_indirect:
                    incomplete[h] = None
                    if self._oldest_gate_valid:
                        oldest = self._oldest_gate
                        if oldest is None or order_col[h] < order_col[oldest]:
                            self._oldest_gate = h
            else:
                ras_col[h] = None
                fetch_pc += 1
                if instr.op is halt:
                    stalled = True

            # The slot's state, written last (nothing above reads it):
            # ready to issue no earlier than fetch + 2 (the dispatch
            # stage) when its operands are, else waiting for a wakeup.
            if (t1 is None or t1.ready) and (t2 is None or t2.ready):
                state[h] = ST_IN_READY
                heappush(ready, (eligible, order_col[h], ref))
            else:
                state[h] = 0
            uid += 1
            budget -= 1
        else:
            finish = restart and fetch_pc == reconv_pc

        fetched = uid - first_uid
        rob.count = count
        rob._next_order = next_order
        ctx.fetch_pc = fetch_pc
        ctx.stalled = stalled
        ctx.ghr = ghr
        ctx.segment = segment
        if fetched:
            self.uid_counter = uid
            pool.allocated_total += fetched
            self.stats.fetched += fetched
            if restart:
                ctx.insert_point = after
                ctx.inserted += fetched
            else:
                self.stats.stage_fetch_cycles += 1
        if finish:
            self._finish_restart(ctx)

    def _reactivate(self, ctx: _Context) -> None:
        """A context gained control of the sequencer: rebuild its rename
        map and global-history register, since recoveries serviced in
        between may have squashed, remapped or re-predicted instructions
        its captured state depends on."""
        if ctx.phase == "restart":
            ctx.rmap = self._map_after(ctx.insert_point)
            ctx.ghr = self._history_up_to(ctx, ctx.insert_point, inclusive=True)
        elif ctx.phase == "redispatch":
            # The walk cursor is advanced eagerly whenever its slot is
            # squashed (see _squash_after), so it is always live or TAIL.
            cursor = ctx.walk_cursor
            if cursor == TAIL:
                ctx.walk_cursor = TAIL
                tail = self.rob.tail
                ctx.rmap = self._map_after(tail if tail is not None else HEAD)
            else:
                ctx.walk_cursor = cursor
                ctx.rmap = self._map_after(self.pool.prev[cursor])
                ctx.ghr = self._history_up_to(ctx, cursor, inclusive=False)

    def _squash_youngest_ci(self, ctx: _Context) -> bool:
        """Make room for a restart by squashing the youngest instruction
        (paper Sec 3.2.2).  Returns False if nothing can be squashed.

        The frontier is backed up to the victim so it is refetched after
        the restart/redispatch completes (whose final walk map becomes
        the frontier map, keeping renaming consistent)."""
        victim = self.rob.tail
        if victim is None:
            return False
        if victim == ctx.insert_point or victim == ctx.branch:
            return False  # would eat the restart being serviced
        self.stats.squashed_ci_for_restart += 1
        # Back the frontier up so the victim is refetched later; GHR, RAS
        # and the rename map are all regenerated by the redispatch walk,
        # which ends exactly at the new tail.
        self.frontier.fetch_pc = self.pool.pc[victim]
        self.frontier.stalled = False
        self.frontier.segment = None
        self._squash_after(self.pool.prev[victim])
        self._prune_contexts()
        if ctx not in self.contexts or ctx.reconv is None:
            return False  # the restart itself was invalidated by the squash
        return True

    def _context_to_frontier(self, ctx: _Context) -> None:
        if ctx.branch is not None:
            self.pool.state[ctx.branch] &= ~ST_RECOVERING
        self.frontier.fetch_pc = ctx.fetch_pc
        self.frontier.ghr = ctx.ghr
        # The context's captured map may reference instructions squashed
        # since it was built; the live window tail is the truth.
        tail = self.rob.tail
        self.frontier.rmap = self._map_after(tail if tail is not None else HEAD)
        self.frontier.segment = ctx.segment
        self.frontier.stalled = ctx.stalled
        self.contexts.remove(ctx)

    def _finish_restart(self, ctx: _Context) -> None:
        self.stats.restart_count += 1
        self.stats.restart_cycles_total += self.cycle - ctx.start_cycle + 1
        self.stats.inserted_cd_instructions += ctx.inserted
        if ctx.reconv is None or not self.pool.is_alive(ctx.reconv):
            self._context_to_frontier(ctx)
            return
        ctx.phase = "redispatch"
        ctx.walk_cursor = ctx.reconv
        ctx.walk_ras = None
        if self.config.instant_redispatch:
            self._redispatch_walk(ctx, instant=True)


__all__ = ["SequencerStage", "_Context"]
