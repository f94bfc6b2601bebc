"""Target prediction: correlated target buffer and return address stack.

Per the paper's configuration (Section 2.2): direct targets are always
"predicted" correctly (computable at fetch), indirect calls/jumps use a
2^16-entry correlated target buffer (Chang/Hao/Patt), and returns use a
perfect return address stack.  Perfection is achieved here by letting
the sequencer snapshot/restore the RAS around speculation, so it is
never corrupted by squashed paths.
"""

from __future__ import annotations


class CorrelatedTargetBuffer:
    """Indirect-jump target table indexed by PC XOR global history."""

    def __init__(self, index_bits: int = 16):
        self.index_bits = index_bits
        self._mask = (1 << index_bits) - 1
        self._targets: dict[int, int] = {}

    def _index(self, pc: int, history: int) -> int:
        return (pc ^ history) & self._mask

    def predict(self, pc: int, history: int) -> int | None:
        """Predicted target, or None on a cold miss."""
        return self._targets.get(self._index(pc, history))

    def update(self, pc: int, history: int, target: int) -> None:
        self._targets[self._index(pc, history)] = target


class ReturnAddressStack:
    """Unbounded return address stack with snapshot/restore.

    ``snapshot``/``restore`` make the stack *perfect* under speculative
    fetch: the sequencer snapshots at every fetched control instruction
    and restores when recovering from a misprediction, so squashed paths
    never leave the stack corrupted (paper: "a perfect return address
    stack").
    """

    def __init__(self):
        self._stack: list[int] = []

    def push(self, return_pc: int) -> None:
        self._stack.append(return_pc)

    def pop(self) -> int | None:
        if self._stack:
            return self._stack.pop()
        return None

    def snapshot(self) -> tuple[int, ...]:
        return tuple(self._stack)

    def restore(self, snap: tuple[int, ...]) -> None:
        self._stack = list(snap)

    def __len__(self) -> int:
        return len(self._stack)
