"""Result cache tests: LRU bound, disk tier, telemetry accounting."""

import os
import pickle
import time

import pytest

from repro.engine.cache import (
    QUARANTINE_MAX_AGE_S,
    ResultCache,
    configure_cache,
    global_cache,
)
from repro.obs import Telemetry


@pytest.fixture()
def telemetry():
    return Telemetry()


class TestMemoryTier:
    def test_roundtrip_and_default(self, telemetry):
        cache = ResultCache(telemetry=telemetry)
        assert cache.get("k") is None
        assert cache.get("k", default="fallback") == "fallback"
        cache.put("k", 42)
        assert cache.get("k") == 42
        assert "k" in cache
        assert len(cache) == 1

    def test_lru_eviction_prefers_recent(self, telemetry):
        cache = ResultCache(max_entries=2, telemetry=telemetry)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a" — "b" becomes the LRU entry
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert telemetry.counter("engine.cache.evictions") == 1

    def test_hit_miss_counters(self, telemetry):
        cache = ResultCache(telemetry=telemetry)
        cache.get("missing")
        cache.put("k", 1)
        cache.get("k")
        assert telemetry.counter("engine.cache.misses") == 1
        assert telemetry.counter("engine.cache.hits") == 1
        assert telemetry.cache_hit_rate() == pytest.approx(0.5)

    def test_clear_drops_memory(self, telemetry):
        cache = ResultCache(telemetry=telemetry)
        cache.put("k", 1)
        cache.clear()
        assert "k" not in cache

    def test_bad_bound_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)


class TestDiskTier:
    def test_cache_dir_created_eagerly(self, tmp_path, telemetry):
        """The directory must exist from construction — a
        CampaignManifest handed the same path has to resolve it as a
        directory, not claim the path as its manifest file."""
        target = tmp_path / "new" / "cache"
        ResultCache(cache_dir=target, telemetry=telemetry)
        assert target.is_dir()

    def test_persists_across_instances(self, tmp_path, telemetry):
        first = ResultCache(cache_dir=tmp_path, telemetry=telemetry)
        first.put("deadbeef", {"p2p": 1.5})
        second = ResultCache(cache_dir=tmp_path, telemetry=telemetry)
        assert second.get("deadbeef") == {"p2p": 1.5}
        assert telemetry.counter("engine.cache.disk_hits") == 1
        assert telemetry.counter("engine.cache.disk_writes") == 1

    def test_disk_hit_promotes_to_memory(self, tmp_path, telemetry):
        ResultCache(cache_dir=tmp_path, telemetry=telemetry).put("k1", "v")
        cache = ResultCache(cache_dir=tmp_path, telemetry=telemetry)
        cache.get("k1")
        cache.get("k1")
        assert telemetry.counter("engine.cache.disk_hits") == 1
        assert telemetry.counter("engine.cache.hits") == 2

    def test_entries_are_sharded_by_prefix(self, tmp_path, telemetry):
        cache = ResultCache(cache_dir=tmp_path, telemetry=telemetry)
        cache.put("abcd", 1)
        assert (tmp_path / "ab" / "abcd.pkl").exists()

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path, telemetry):
        cache = ResultCache(cache_dir=tmp_path, telemetry=telemetry)
        cache.put("abcd", 1)
        path = tmp_path / "ab" / "abcd.pkl"
        path.write_bytes(b"not a pickle")
        fresh = ResultCache(cache_dir=tmp_path, telemetry=telemetry)
        assert fresh.get("abcd") is None
        assert not path.exists()

    def test_no_temp_droppings_after_writes(self, tmp_path, telemetry):
        # Atomic publish: only final *.pkl files may exist, never a
        # half-written temp file a reader could trip over.
        cache = ResultCache(cache_dir=tmp_path, telemetry=telemetry)
        for i in range(5):
            cache.put(f"key{i}", list(range(100)))
        leftovers = [
            path
            for path in tmp_path.rglob("*")
            if path.is_file() and path.suffix != ".pkl"
        ]
        assert leftovers == []


class TestGetOrCompute:
    def test_miss_computes_and_publishes_the_record(self, tmp_path, telemetry):
        cache = ResultCache(cache_dir=tmp_path, telemetry=telemetry)
        value = cache.get_or_compute(
            "abcd", lambda: [3, 1, 2], to_record=tuple
        )
        assert value == [3, 1, 2]
        assert ResultCache(cache_dir=tmp_path).get("abcd") == (3, 1, 2)
        assert telemetry.counter("engine.cache.misses") == 1

    def test_hit_rebuilds_from_the_record_without_computing(
        self, tmp_path, telemetry
    ):
        ResultCache(cache_dir=tmp_path).put("abcd", (3, 1, 2))
        cache = ResultCache(cache_dir=tmp_path, telemetry=telemetry)

        def compute():
            raise AssertionError("a hit must not compute")

        assert cache.get_or_compute("abcd", compute, from_record=list) == [
            3, 1, 2,
        ]
        assert telemetry.counter("engine.cache.disk_hits") == 1

    def test_torn_record_is_recomputed(self, tmp_path, telemetry):
        ResultCache(cache_dir=tmp_path).put("abcd", {"v": 1})
        (tmp_path / "ab" / "abcd.pkl").write_bytes(b"torn write")
        cache = ResultCache(cache_dir=tmp_path, telemetry=telemetry)
        assert cache.get_or_compute("abcd", lambda: {"v": 1}) == {"v": 1}
        assert telemetry.counter("engine.cache.quarantined") == 1
        assert ResultCache(cache_dir=tmp_path).get("abcd") == {"v": 1}


class TestQuarantine:
    def test_corrupt_entry_is_parked_for_post_mortem(self, tmp_path, telemetry):
        cache = ResultCache(cache_dir=tmp_path, telemetry=telemetry)
        cache.put("abcd", {"v": 1})
        (tmp_path / "ab" / "abcd.pkl").write_bytes(b"torn write")
        fresh = ResultCache(cache_dir=tmp_path, telemetry=telemetry)
        assert fresh.get("abcd") is None
        assert telemetry.counter("engine.cache.quarantined") == 1
        assert (tmp_path / "quarantine" / "abcd.pkl").exists()

    def test_recompute_republishes_over_quarantined_key(
        self, tmp_path, telemetry
    ):
        cache = ResultCache(cache_dir=tmp_path, telemetry=telemetry)
        cache.put("abcd", {"v": 1})
        (tmp_path / "ab" / "abcd.pkl").write_bytes(b"torn write")
        fresh = ResultCache(cache_dir=tmp_path, telemetry=telemetry)
        assert fresh.get("abcd") is None  # quarantines
        fresh.put("abcd", {"v": 2})  # the recompute
        again = ResultCache(cache_dir=tmp_path, telemetry=telemetry)
        assert again.get("abcd") == {"v": 2}
        assert telemetry.counter("engine.cache.quarantined") == 1

    def test_quarantine_dir_disabled_without_disk_tier(self, telemetry):
        assert ResultCache(telemetry=telemetry).quarantine_dir() is None

    def test_entries_survive_memory_clear(self, tmp_path, telemetry):
        cache = ResultCache(cache_dir=tmp_path, telemetry=telemetry)
        cache.put("abcd", [1, 2])
        cache.clear()
        assert cache.get("abcd") == [1, 2]

    def test_values_use_plain_pickle(self, tmp_path, telemetry):
        cache = ResultCache(cache_dir=tmp_path, telemetry=telemetry)
        cache.put("abcd", {"x": 1})
        with (tmp_path / "ab" / "abcd.pkl").open("rb") as handle:
            assert pickle.load(handle) == {"x": 1}


class TestQuarantineAging:
    @staticmethod
    def seed_quarantine(tmp_path, names, age_s=0.0):
        quarantine = tmp_path / "quarantine"
        quarantine.mkdir(parents=True, exist_ok=True)
        now = time.time()
        for name in names:
            path = quarantine / f"{name}.pkl"
            path.write_bytes(b"junk")
            os.utime(path, (now - age_s, now - age_s))
        return quarantine

    def test_stale_entries_pruned_on_open(self, tmp_path, telemetry):
        quarantine = self.seed_quarantine(
            tmp_path, ["old1", "old2"], age_s=QUARANTINE_MAX_AGE_S + 60
        )
        self.seed_quarantine(tmp_path, ["fresh"], age_s=60.0)
        ResultCache(cache_dir=tmp_path, telemetry=telemetry)
        survivors = sorted(p.name for p in quarantine.iterdir())
        assert survivors == ["fresh.pkl"]
        assert telemetry.counter("engine.cache.quarantine_pruned") == 2

    def test_count_bound_drops_oldest_first(self, tmp_path, telemetry):
        quarantine = tmp_path / "quarantine"
        quarantine.mkdir(parents=True)
        now = time.time()
        for i in range(6):  # entry0 is the oldest
            path = quarantine / f"entry{i}.pkl"
            path.write_bytes(b"junk")
            os.utime(path, (now - 600 + i, now - 600 + i))
        cache = ResultCache(cache_dir=tmp_path, telemetry=telemetry)
        pruned = cache.prune_quarantine(max_entries=4, max_age_s=86400.0)
        assert pruned == 2
        survivors = sorted(p.name for p in quarantine.iterdir())
        assert survivors == [f"entry{i}.pkl" for i in range(2, 6)]

    def test_fresh_small_quarantine_untouched(self, tmp_path, telemetry):
        quarantine = self.seed_quarantine(tmp_path, ["a", "b"], age_s=10.0)
        cache = ResultCache(cache_dir=tmp_path, telemetry=telemetry)
        assert cache.prune_quarantine() == 0
        assert len(list(quarantine.iterdir())) == 2
        assert telemetry.counter("engine.cache.quarantine_pruned") == 0

    def test_injected_ts_makes_aging_deterministic(self, tmp_path, telemetry):
        self.seed_quarantine(tmp_path, ["x"], age_s=0.0)
        cache = ResultCache(cache_dir=tmp_path, telemetry=telemetry)
        future = time.time() + QUARANTINE_MAX_AGE_S + 1.0
        assert cache.prune_quarantine(now=future) == 1

    def test_missing_quarantine_dir_is_fine(self, tmp_path, telemetry):
        cache = ResultCache(cache_dir=tmp_path, telemetry=telemetry)
        assert cache.prune_quarantine() == 0


class TestGlobalCache:
    def test_configure_cache_rebuilds_global(self, tmp_path):
        original = global_cache()
        try:
            rebuilt = configure_cache(max_entries=7, cache_dir=tmp_path)
            assert global_cache() is rebuilt
            assert rebuilt.max_entries == 7
            assert rebuilt.cache_dir == tmp_path
            disabled = configure_cache(cache_dir=None)
            assert disabled.cache_dir is None
            assert disabled.max_entries == 7
        finally:
            configure_cache(
                max_entries=original.max_entries,
                cache_dir=original.cache_dir,
            )
