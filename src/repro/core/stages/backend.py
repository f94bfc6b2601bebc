"""Backend stage: issue, execute, complete, broadcast (paper Sec 4.1).

Instructions issue from a ready heap at dispatch+2, execute with dense
opcode-indexed latencies, and complete by broadcasting values to
consumers — reissuing any whose inputs changed (selective reissue),
including loads squashed by stores.  Branch completion is gated by the
configured completion model (Appendix A.2): in-order models consult the
event-maintained oldest-incomplete-branch cache, store-gated models the
LSQ's unresolved-store subset.  A branch whose gate is closed waits in a
pending list that the completion phase retries only after an event that
can open a gate: the cached oldest branch completing or being squashed,
or the unresolved-store subset shrinking.

All instruction state lives in the columnar pool: the ready heap carries
pure int tuples ``(eligible, order, uid, handle)`` — the uid in the
tuple self-validates a popped entry against slot recycling — and the
completion wheel plus the pending-branch list carry packed refs that
self-invalidate the same way (``pool.ref[ref & REF_MASK] != ref``).
"""

from __future__ import annotations

import heapq

from ...ideal.models import LATENCY_TABLE, WIDTH
from ...isa import CONTROL_KERNELS, VALUE_KERNELS, effective_addr
from ..soa import (
    REF_MASK,
    ST_COMPLETED,
    ST_DEAD,
    ST_FETCHED_MP,
    ST_INFLIGHT,
    ST_IN_READY,
    ST_ISSUED_MP,
    ST_REISSUED_MP,
)


class BackendStage:
    """Issue/execute/complete methods mixed into the Processor facade."""

    def _operands_ready(self, h: int) -> bool:
        pool = self.pool
        t1, t2 = pool.src1_tag[h], pool.src2_tag[h]
        return (t1 is None or t1.ready) and (t2 is None or t2.ready)

    def _push_ready(self, h: int, eligible: int) -> None:
        pool = self.pool
        state = pool.state
        if state[h] & ST_IN_READY:
            return
        state[h] |= ST_IN_READY
        heapq.heappush(self._ready, (eligible, pool.order[h], pool.uid[h], h))

    def _wake(self, h: int, eligible: int) -> None:
        """A source tag broadcast a new value (or rename repair): reissue."""
        pool = self.pool
        if pool.state[h] & ST_DEAD:
            return
        if pool.issue_count[h] == 0 and not self._operands_ready(h):
            return
        self._push_ready(h, max(eligible, pool.dispatch_cycle[h] + 2))

    # ==================================================================
    # issue & execute

    def _issue_phase(self) -> None:
        """Issue up to ``WIDTH`` eligible instructions and execute each
        (the execute step is inlined: this loop is its only caller)."""
        ready = self._ready
        cycle = self.cycle
        if not ready or ready[0][0] > cycle:
            return
        budget = WIDTH
        issued = 0
        pop = heapq.heappop
        pool = self.pool
        state = pool.state
        uids = pool.uid
        refs = pool.ref
        issue_count = pool.issue_count
        instrs = pool.instr
        src1_tag = pool.src1_tag
        src2_tag = pool.src2_tag
        values = pool.value
        lat = LATENCY_TABLE
        wheel_mask = self._wheel_mask
        wheel_nodes = self._wheel_nodes
        wheel_tokens = self._wheel_tokens
        while ready and budget > 0:
            eligible, _, uid, h = ready[0]
            if eligible > cycle:
                break
            pop(ready)
            if uids[h] != uid:
                # Slot recycled since push: the entry belongs to a dead
                # instruction; the current occupant's own in_ready flag
                # must not be touched.
                continue
            s = state[h] & ~ST_IN_READY
            if s & ST_DEAD:
                state[h] = s
                continue
            budget -= 1
            issued += 1

            # -- execute ------------------------------------------------
            token = issue_count[h] + 1
            issue_count[h] = token
            if s & ST_FETCHED_MP and s & ST_ISSUED_MP:
                s |= ST_REISSUED_MP
            state[h] = s | ST_INFLIGHT
            instr = instrs[h]
            t1 = src1_tag[h]
            t2 = src2_tag[h]
            a = t1.value if t1 is not None else 0
            b = t2.value if t2 is not None else 0
            # Straight to the per-opcode kernels (the single definition
            # of instruction semantics, repro.isa.instructions), which
            # allocate no result object.
            opcode = instr.opcode
            if instr.is_mem:
                addr = effective_addr(instr, a)
                if instr.is_load:
                    pool.addr[h] = addr
                    latency = 1 + self.cache.access(addr)
                else:
                    pool.prev_addr[h] = pool.addr[h]
                    pool.addr[h] = addr
                    pool.store_value[h] = b
                    latency = lat[opcode]
            elif instr.is_control:
                taken, next_pc, value = CONTROL_KERNELS[opcode](
                    instr, pool.pc[h], a, b
                )
                pool.outcome_taken[h] = taken
                pool.outcome_next_pc[h] = next_pc
                values[h] = value  # call link address
                latency = lat[opcode]
            else:
                values[h] = VALUE_KERNELS[opcode](instr, a, b)
                latency = lat[opcode]
            # File the completion on the wheel: its horizon was sized over
            # LATENCY_TABLE and the cache's miss latency, so no latency
            # here can wrap onto a slot still holding another cycle.
            slot = (cycle + latency) & wheel_mask
            wheel_nodes[slot].append(refs[h])
            wheel_tokens[slot].append(token)
        if issued:
            self.stats.issues_total += issued
            self.stats.stage_issue_cycles += 1

    # ==================================================================
    # completion

    def _complete_phase(self) -> None:
        refs_due, tokens = self._completing.take(self.cycle)
        pool = self.pool
        refs = pool.ref
        state = pool.state
        issue_count = pool.issue_count
        if refs_due:
            complete = self._complete
            for ref, token in zip(refs_due, tokens):
                h = ref & REF_MASK
                if refs[h] != ref or state[h] & ST_DEAD or token != issue_count[h]:
                    continue
                state[h] &= ~ST_INFLIGHT
                complete(h)
            refs_due.clear()
            tokens.clear()
        if self._pending_branches:
            # Retry gated branches only after a gate-opening event (see
            # ``_oldest_gate_events`` in the Processor constructor).
            events = 0
            if self._gate_in_order:
                events = self._oldest_gate_events
            if self._gate_stores:
                events += self.lsq.unresolved_shrinks
            if events != self._swept_events or self._sweep_always:
                self._swept_events = events
                still_pending: list[tuple[int, int]] = []
                for ref, token in self._pending_branches:
                    h = ref & REF_MASK
                    if (
                        refs[h] != ref
                        or state[h] & ST_DEAD
                        or token != issue_count[h]
                    ):
                        continue
                    if not self._try_complete_branch(h):
                        still_pending.append((ref, token))
                self._pending_branches = still_pending
        if self._any_completed:
            self.stats.stage_complete_cycles += 1
            self._any_completed = False
        if self._any_recovered:
            self.stats.stage_recover_cycles += 1
            self._any_recovered = False

    def _complete(self, h: int) -> None:
        pool = self.pool
        instr = pool.instr[h]
        if instr.is_branch or instr.is_indirect:
            if not self._try_complete_branch(h):
                self._pending_branches.append((pool.ref[h], pool.issue_count[h]))
            return
        pool.state[h] |= ST_COMPLETED
        self._any_completed = True
        if instr.is_load:
            source = self.lsq.forward_source(h)
            if source is not None:
                value = pool.store_value[source]
                pool.fwd_store[h] = pool.ref[source]
            else:
                value = self.committed_mem.get(pool.addr[h], 0)
                pool.fwd_store[h] = None
            pool.value[h] = value
            self._broadcast(h)
        elif instr.is_store:
            self.lsq.store_resolved(h)
            self._store_executed(h)
        else:
            self._broadcast(h)

    def _broadcast(self, h: int) -> None:
        pool = self.pool
        tag = pool.dest_tag[h]
        if tag is None:
            return
        if tag.broadcast(pool.value[h]):
            # The wake-up below only pushes onto the ready heap — it never
            # mutates the consumer list — so iterating the live list
            # directly is safe (the old defensive copy allocated per
            # broadcast).  The _wake body is inlined to spare one call and
            # a duplicate liveness check per consumer on this hot loop —
            # unless something patched _wake on the instance (the fault
            # injectors arm that way), in which case every wakeup must
            # route through the patched hook.
            cycle = self.cycle
            refs = pool.ref
            state = pool.state
            self_ref = refs[h]
            wake = self.__dict__.get("_wake")
            if wake is not None:
                dead = 0
                for ref in tag.consumers:
                    ch = ref & REF_MASK
                    if refs[ch] == ref and not state[ch] & ST_DEAD:
                        if ref != self_ref:
                            wake(ch, cycle)
                    else:
                        dead += 1
                if dead > 8 and dead * 2 > len(tag.consumers):
                    tag.consumers = [
                        r
                        for r in tag.consumers
                        if refs[r & REF_MASK] == r
                        and not state[r & REF_MASK] & ST_DEAD
                    ]
                return
            ready = self._ready
            issue_count = pool.issue_count
            src1_tag = pool.src1_tag
            src2_tag = pool.src2_tag
            dispatch_cycle = pool.dispatch_cycle
            orders = pool.order
            uids = pool.uid
            dead = 0
            for ref in tag.consumers:
                ch = ref & REF_MASK
                s = state[ch]
                if refs[ch] != ref or s & ST_DEAD:
                    dead += 1
                    continue
                if ref == self_ref or s & ST_IN_READY:
                    continue
                if issue_count[ch] == 0:
                    t1 = src1_tag[ch]
                    t2 = src2_tag[ch]
                    if (t1 is not None and not t1.ready) or (
                        t2 is not None and not t2.ready
                    ):
                        continue
                eligible = dispatch_cycle[ch] + 2
                if eligible < cycle:
                    eligible = cycle
                state[ch] = s | ST_IN_READY
                heapq.heappush(ready, (eligible, orders[ch], uids[ch], ch))
            if dead > 8 and dead * 2 > len(tag.consumers):
                tag.consumers = [
                    r
                    for r in tag.consumers
                    if refs[r & REF_MASK] == r and not state[r & REF_MASK] & ST_DEAD
                ]

    def _store_executed(self, h: int) -> None:
        pool = self.pool
        addrs = {pool.addr[h]}
        if pool.prev_addr[h] is not None:
            addrs.add(pool.prev_addr[h])  # loads bound to the stale address
        affected = self.lsq.loads_affected_by(h, addrs)
        if affected:
            node_ref = pool.ref[h]
            store_value = pool.store_value[h]
            fwd = pool.fwd_store
            value = pool.value
            for load in affected:
                if fwd[load] == node_ref and value[load] == store_value:
                    continue  # already forwarded the right value
                self.stats.reissues_memory += 1
                self._wake(load, self.cycle + 1)  # 1-cycle squash penalty

    # ------------------------------------------------------------------
    # branch completion (gating models of Appendix A.2)

    def _oldest_incomplete_branch(self) -> int | None:
        """Oldest alive incomplete branch, maintained event-style: the
        cache survives until its slot completes or is squashed (dispatch
        repairs it in place), so in-order gating is one order compare
        instead of a scan over every incomplete branch."""
        if not self._oldest_gate_valid:
            pool = self.pool
            state = pool.state
            orders = pool.order
            oldest = None
            for oh in self._incomplete_branches.values():
                if not state[oh] & (ST_COMPLETED | ST_DEAD) and (
                    oldest is None or orders[oh] < orders[oldest]
                ):
                    oldest = oh
            self._oldest_gate = oldest
            self._oldest_gate_valid = True
        return self._oldest_gate

    def _branch_gates_open(self, h: int) -> bool:
        if self._gate_in_order:
            oldest = self._oldest_incomplete_branch()
            if oldest is not None and self.pool.order[oldest] < self.pool.order[h]:
                return False
        if self._gate_stores:
            # Empty-subset guard: most cycles have no unresolved store in
            # flight, so skip the scan call outright.
            if self.lsq._unresolved_stores and self.lsq.unresolved_older_stores(h):
                return False
        return True

    def _would_be_false_misprediction(self, h: int) -> bool:
        entry = self._golden_entry_for(h)
        if entry is None:
            return False
        return entry.next_pc == self.pool.current_next_pc[h]

    def _try_complete_branch(self, h: int) -> bool:
        if not self._branch_gates_open(h):
            return False
        pool = self.pool
        mismatch = pool.outcome_next_pc[h] != pool.current_next_pc[h]
        if (
            mismatch
            and self.config.hide_false_mispredictions
            and self._would_be_false_misprediction(h)
        ):
            return False  # oracle delays completion until operands correct
        pool.state[h] |= ST_COMPLETED
        self._any_completed = True
        self._incomplete_branches.pop(pool.uid[h], None)
        if self._oldest_gate == h:
            self._oldest_gate_valid = False
            self._oldest_gate_events += 1
        if pool.dest_tag[h] is not None:  # calls write the link register
            self._broadcast(h)
        if mismatch:
            self._recover(h)
        return True


__all__ = ["BackendStage"]
