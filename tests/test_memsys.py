"""Cache timing model tests."""

from hypothesis import given, strategies as st

from repro.memsys import SetAssociativeCache


class TestSetAssociativeCache:
    def make(self, **kw):
        defaults = dict(
            size_bytes=1024, assoc=2, line_words=4, hit_latency=2, miss_latency=14
        )
        defaults.update(kw)
        return SetAssociativeCache(**defaults)

    def test_cold_miss_then_hit(self):
        cache = self.make()
        assert cache.access(0) == 14
        assert cache.access(0) == 2

    def test_spatial_locality_within_line(self):
        cache = self.make()
        cache.access(0)
        assert cache.access(3) == 2  # same 4-word line
        assert cache.access(4) == 14  # next line

    def test_lru_eviction(self):
        cache = self.make(size_bytes=4 * 8 * 2 * 2)  # 2 sets, 2 ways
        sets = cache.num_sets
        line = cache.line_words
        a, b, c = 0, sets * line, 2 * sets * line  # all map to set 0
        cache.access(a)
        cache.access(b)
        cache.access(c)  # evicts a
        assert cache.access(b) == 2
        assert cache.access(a) == 14

    def test_lru_touch_refreshes(self):
        cache = self.make(size_bytes=4 * 8 * 2 * 2)
        sets, line = cache.num_sets, cache.line_words
        a, b, c = 0, sets * line, 2 * sets * line
        cache.access(a)
        cache.access(b)
        cache.access(a)  # refresh a
        cache.access(c)  # evicts b
        assert cache.access(a) == 2

    def test_probe_does_not_disturb(self):
        cache = self.make()
        cache.access(0)
        accesses = cache.stats.accesses
        assert cache.probe(0)
        assert not cache.probe(1000)
        assert cache.stats.accesses == accesses

    def test_paper_geometry(self):
        cache = SetAssociativeCache()
        assert cache.num_sets * cache.assoc * cache.line_words * 8 == 64 * 1024

    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=300))
    def test_repeat_pass_all_hits(self, addrs):
        cache = SetAssociativeCache(size_bytes=1 << 20)  # big enough
        for addr in addrs:
            cache.access(addr)
        for addr in addrs:
            assert cache.access(addr) == cache.hit_latency
