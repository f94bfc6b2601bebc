"""gshare conditional branch predictor (McFarling, 1993).

A table of 2-bit saturating counters indexed by PC XOR global branch
history.  The global history register (GHR) itself is owned by the
*caller*: control-independence machines must checkpoint, corrupt and
repair fetch-time history (paper Appendix A.3), so the predictor exposes
pure ``predict(pc, history)`` / ``update(pc, history, taken)`` methods
and a small helper for speculative history management.
"""

from __future__ import annotations

COUNTER_INIT = 2  # weakly taken


class GshareGlobalHistory:
    """Helpers for managing a fetch-time global history register."""

    def __init__(self, bits: int):
        self.bits = bits
        self.mask = (1 << bits) - 1

    def push(self, history: int, taken: bool) -> int:
        return ((history << 1) | (1 if taken else 0)) & self.mask


class GsharePredictor:
    """2-bit-counter gshare; default geometry matches the paper (2^16)."""

    def __init__(self, index_bits: int = 16, history_bits: int | None = None):
        self.index_bits = index_bits
        self.history_bits = history_bits if history_bits is not None else index_bits
        self.table = bytearray((COUNTER_INIT,)) * (1 << index_bits)
        self._index_mask = (1 << index_bits) - 1
        self.history = GshareGlobalHistory(self.history_bits)

    def _index(self, pc: int, history: int) -> int:
        return (pc ^ history) & self._index_mask

    def predict(self, pc: int, history: int) -> bool:
        return self.table[self._index(pc, history)] >= 2

    def update(self, pc: int, history: int, taken: bool) -> None:
        idx = self._index(pc, history)
        counter = self.table[idx]
        if taken:
            if counter < 3:
                self.table[idx] = counter + 1
        elif counter > 0:
            self.table[idx] = counter - 1
