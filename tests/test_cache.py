"""Content-addressed artifact cache: LRU, disk layer, accounting."""

import pickle

import pytest

from repro.errors import CacheError
from repro.harness.cache import (
    ArtifactCache,
    configure_default_cache,
    get_default_cache,
    program_fingerprint,
    reset_default_cache,
)
from repro.harness.spec import WorkloadBundle
from repro.workloads import build_workload


@pytest.fixture(autouse=True)
def _isolated_default_cache():
    reset_default_cache()
    yield
    reset_default_cache()


class TestFingerprint:
    def test_same_content_same_fingerprint(self):
        a = build_workload("go", 0.05).program
        b = build_workload("go", 0.05).program
        assert a is not b
        assert program_fingerprint(a) == program_fingerprint(b)

    def test_different_scale_different_fingerprint(self):
        a = build_workload("go", 0.05).program
        b = build_workload("go", 0.1).program
        assert program_fingerprint(a) != program_fingerprint(b)

    def test_different_workload_different_fingerprint(self):
        a = build_workload("go", 0.05).program
        b = build_workload("compress", 0.05).program
        assert program_fingerprint(a) != program_fingerprint(b)


class TestMemoryLayer:
    def test_hit_returns_same_objects(self):
        cache = ArtifactCache()
        first = cache.artifacts("go", 0.05)
        second = cache.artifacts("go", 0.05)
        # a fresh bundle per call (each memoizes its own annotated
        # trace) over the one cached trace and table
        assert isinstance(second, WorkloadBundle) and second is not first
        assert second.golden is first.golden
        assert second.reconv is first.reconv
        assert cache.stats.misses == 1 and cache.stats.memory_hits == 1

    def test_history_bits_are_part_of_the_key(self, monkeypatch):
        import repro.harness.cache as cache_mod

        cache = ArtifactCache()
        wide = cache.artifacts("go", 0.05)
        monkeypatch.setattr(cache_mod, "HISTORY_BITS", 4)
        narrow = cache.artifacts("go", 0.05)
        assert wide.golden is not narrow.golden
        assert narrow.golden.history_bits == 4
        assert cache.stats.misses == 2

    def test_lru_evicts_oldest(self, monkeypatch):
        import repro.harness.cache as cache_mod

        monkeypatch.setattr(cache_mod, "MAX_ENTRIES", 1)
        cache = ArtifactCache()
        cache.artifacts("go", 0.05)
        cache.artifacts("compress", 0.05)  # evicts go
        cache.artifacts("go", 0.05)  # miss again
        assert cache.stats.misses == 3
        assert cache.stats.evictions >= 1


class TestDiskLayer:
    def test_second_cache_loads_from_disk(self, tmp_path):
        first = ArtifactCache(disk_dir=tmp_path)
        derived = first.artifacts("go", 0.05)
        assert first.stats.misses == 1

        second = ArtifactCache(disk_dir=tmp_path)  # fresh memory layer
        loaded = second.artifacts("go", 0.05)
        assert second.stats.disk_hits == 1 and second.stats.misses == 0
        assert len(loaded.golden) == len(derived.golden)
        assert loaded.golden.entries[5] == derived.golden.entries[5]
        assert loaded.reconv._reconv_pc == derived.reconv._reconv_pc

    def test_corrupt_entry_is_a_miss_and_rewritten(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        cache.artifacts("go", 0.05)
        (victim,) = list(tmp_path.glob("*.pkl"))
        victim.write_bytes(b"not a pickle")

        fresh = ArtifactCache(disk_dir=tmp_path)
        fresh.artifacts("go", 0.05)
        assert fresh.stats.misses == 1  # treated as a miss, not a crash
        (rewritten,) = list(tmp_path.glob("*.pkl"))
        with rewritten.open("rb") as fh:
            pickle.load(fh)  # valid again

    def test_unwritable_dir_rejected_up_front(self, tmp_path):
        blocked = tmp_path / "file-not-dir"
        blocked.write_text("occupied")
        with pytest.raises(CacheError, match="not writable|not a directory"):
            ArtifactCache(disk_dir=blocked)


class TestAccounting:
    def test_hit_rate(self):
        cache = ArtifactCache()
        assert cache.stats.hit_rate == 0.0  # no lookups: guarded, not 0/0
        cache.artifacts("go", 0.05)
        cache.artifacts("go", 0.05)
        cache.artifacts("go", 0.05)
        assert cache.stats.lookups == 3
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_as_dict_is_json_friendly(self):
        import json

        cache = ArtifactCache()
        cache.artifacts("go", 0.05)
        payload = json.loads(json.dumps(cache.stats.as_dict()))
        assert payload["misses"] == 1


class TestDefaultCache:
    def test_load_bundle_shares_artifacts_within_process(self):
        from repro.harness import load_bundle

        a = load_bundle("go", 0.05)
        b = load_bundle("go", 0.05)
        assert a.golden is b.golden and a.reconv is b.reconv

    def test_env_knobs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cachedir"))
        reset_default_cache()
        assert get_default_cache().disk_dir == tmp_path / "cachedir"

        monkeypatch.delenv("REPRO_CACHE_DIR")
        reset_default_cache()
        assert get_default_cache().disk_dir is None

    def test_configure_replaces_singleton(self, tmp_path):
        configure_default_cache(disk_dir=tmp_path)
        assert get_default_cache().disk_dir == tmp_path

    def test_configure_explicit_none_means_memory_only(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "shared"))
        cache = configure_default_cache(disk_dir=None)
        assert cache.disk_dir is None
