"""Data cache timing model of the detailed study.

The detailed study (paper Sec. 4.1) uses a 64KB 4-way set-associative
cache with 2-cycle hits and 14-cycle misses to a perfect L2.  (The
idealized study's perfect single-cycle cache is folded into its load
latency; see :data:`repro.ideal.models.DEFAULT_LATENCIES`.)  Only
timing is modeled here — data values always come from the simulator's
memory image / store queue.
"""

from __future__ import annotations

from dataclasses import dataclass

WORD_BYTES = 8


@dataclass
class CacheStats:
    accesses: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            return 1.0
        return 1.0 - self.misses / self.accesses


class SetAssociativeCache:
    """LRU set-associative cache over word addresses.

    Defaults model the paper's 64KB, 4-way data cache with 32-byte lines
    (4 words per line at 8 bytes/word), 2-cycle hit, 14-cycle miss.
    """

    def __init__(
        self,
        size_bytes: int = 64 * 1024,
        assoc: int = 4,
        line_words: int = 4,
        hit_latency: int = 2,
        miss_latency: int = 14,
    ):
        line_bytes = line_words * WORD_BYTES
        self.num_sets = size_bytes // (line_bytes * assoc)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("number of sets must be a power of two")
        self.assoc = assoc
        self.line_words = line_words
        self.hit_latency = hit_latency
        self.miss_latency = miss_latency
        self.stats = CacheStats()
        # Each set is an LRU-ordered list of line tags (most recent last).
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]

    def _set_and_tag(self, addr: int) -> tuple[int, int]:
        line = addr // self.line_words
        return line & (self.num_sets - 1), line

    def access(self, addr: int, is_store: bool = False) -> int:
        """Access one word; returns the latency in cycles."""
        self.stats.accesses += 1
        index, tag = self._set_and_tag(addr)
        ways = self._sets[index]
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            return self.hit_latency
        self.stats.misses += 1
        ways.append(tag)
        if len(ways) > self.assoc:
            ways.pop(0)
        return self.miss_latency

    def probe(self, addr: int) -> bool:
        """Non-destructive hit check (no LRU update, no stats)."""
        index, tag = self._set_and_tag(addr)
        return tag in self._sets[index]
