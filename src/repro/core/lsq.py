"""Load/store queue with insertion/removal and ordering repair.

Implements the paper's aggressive memory model (Sec 4.1): loads issue
ahead of unresolved stores, forwarding from the youngest older store
with a matching resolved address, else reading committed memory.  When
a store (re)executes, changes its address/value, or is selectively
squashed out of the window, every younger load that already executed
against an affected address is reissued — and its dependence chain
follows through the register broadcast mechanism.

Entries are keyed by pool handle into the shared columnar
:class:`~repro.core.soa.InstrPool`; the queue tracks only *live*
instructions (``drop`` runs before the ROB recycles a slot), so a handle
here never names a slot's next tenant.  Order between entries comes from
the pool's order column, so entries inserted into the middle of the
window by a restart sequence compare correctly (paper Appendix A.4.3's
physical-to-logical translation).
"""

from __future__ import annotations

from .soa import ST_COMPLETED, InstrPool


class LoadStoreQueue:
    """Tracks live loads and stores in the window, by pool handle."""

    def __init__(self, pool: InstrPool):
        self.pool = pool
        # Keyed by handle (values unused): dicts, not sets, so that the
        # scans below run in insertion order.
        self._stores: dict[int, None] = {}
        self._loads: dict[int, None] = {}
        #: stores whose address is still unknown — kept in sync by
        #: :meth:`store_resolved` so the branch-completion gate scans the
        #: (usually tiny) unresolved subset, not every store in flight
        self._unresolved_stores: dict[int, None] = {}

    # ------------------------------------------------------------------
    def add(self, h: int) -> None:
        instr = self.pool.instr[h]
        if instr.is_store:
            self._stores[h] = None
            self._unresolved_stores[h] = None
        elif instr.is_load:
            self._loads[h] = None

    def drop(self, h: int) -> None:
        if not self.pool.instr[h].is_mem:  # only memory ops are ever tracked
            return
        self._stores.pop(h, None)
        self._loads.pop(h, None)
        self._unresolved_stores.pop(h, None)

    def store_resolved(self, h: int) -> None:
        """The store completed: its address is now known."""
        self._unresolved_stores.pop(h, None)

    # ------------------------------------------------------------------
    def forward_source(self, load: int) -> int | None:
        """Youngest older executed store matching the load's address."""
        pool = self.pool
        state = pool.state
        addr_col = pool.addr
        order_col = pool.order
        best: int | None = None
        best_order = 0
        addr = addr_col[load]
        order = order_col[load]
        for sh in self._stores:
            store_order = order_col[sh]
            if (
                state[sh] & ST_COMPLETED
                and addr_col[sh] == addr
                and store_order < order
                and (best is None or store_order > best_order)
            ):
                best = sh
                best_order = store_order
        return best

    def unresolved_older_stores(self, h: int) -> bool:
        """Any older store whose address is still unknown?"""
        pool = self.pool
        state = pool.state
        order_col = pool.order
        order = order_col[h]
        for sh in self._unresolved_stores:
            if not state[sh] & ST_COMPLETED and order_col[sh] < order:
                return True
        return False

    def loads_affected_by(self, store: int, addrs: set[int]) -> list[int]:
        """Younger loads that already executed against an affected address.

        Conservative: any younger executed load whose address matches the
        store's old or new address is reissued; the precise forwarding
        check happens when the load re-executes.
        """
        pool = self.pool
        order_col = pool.order
        addr_col = pool.addr
        issue_count = pool.issue_count
        order = order_col[store]
        out = []
        for lh in self._loads:
            if order_col[lh] > order and addr_col[lh] in addrs and issue_count[lh] > 0:
                out.append(lh)
        return out
