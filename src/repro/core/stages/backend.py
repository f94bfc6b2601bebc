"""Backend stage: wakeups, store replay and branch-completion gating
(paper Sec 4.1, Appendix A.2).

Instructions issue from a ready heap at dispatch+2, execute with dense
opcode-indexed latencies, and complete by broadcasting values to
consumers — reissuing any whose inputs changed (selective reissue),
including loads squashed by stores.  The issue loop and the fused
complete-and-broadcast loop live in ``Processor.run``, the one cycle
loop, over its locals; this module holds what they call per event:

* :meth:`BackendStage._wake`, the one wakeup entry point outside that
  loop (a store's replayed loads, a redispatch rename repair); the
  broadcast in ``Processor.run`` inlines the same rule;
* store completion, which replays the younger loads it affects;
* the completion-model gates: in-order models consult the
  event-maintained oldest-incomplete-branch cache, store-gated models
  the LSQ's unresolved-store subset.  A branch whose gate is closed
  waits in the pending lists, which the completion loop retries once
  per cycle while they are non-empty; a retry whose gate is still
  closed re-appends the branch in the same order.

All instruction state lives in the columnar pool.  The ready heap
carries int tuples ``(eligible, order, ref)``; the completion wheel and
the pending-branch lists carry packed refs too, and every one of them
self-invalidates once its slot is recycled (``pool.ref[ref & REF_MASK]
!= ref``).
"""

from __future__ import annotations

from heapq import heappush

from ..soa import ST_COMPLETED, ST_DEAD, ST_IN_READY


class BackendStage:
    """Wakeup, store-replay and gating methods mixed into the Processor
    facade."""

    def _wake(self, h: int, eligible: int) -> None:
        """A source tag broadcast a new value (or rename repair): queue
        ``h`` to issue no earlier than ``eligible`` and dispatch + 2.

        No-op for a dead slot, a slot already in the ready heap, and a
        never-issued slot whose operands are not all ready yet."""
        pool = self.pool
        state = pool.state
        s = state[h]
        if s & (ST_DEAD | ST_IN_READY):
            return
        if pool.issue_count[h] == 0:
            t1 = pool.src1_tag[h]
            t2 = pool.src2_tag[h]
            if (t1 is not None and not t1.ready) or (t2 is not None and not t2.ready):
                return
        floor = pool.dispatch_cycle[h] + 2
        state[h] = s | ST_IN_READY
        heappush(
            self._ready,
            (eligible if eligible > floor else floor, pool.order[h], pool.ref[h]),
        )

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
            for oh in self._incomplete_branches:
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


__all__ = ["BackendStage"]
