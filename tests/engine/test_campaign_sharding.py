"""Campaign manifest concurrency + shard-merge bookkeeping: the writer
lock, manifest folding, and the disk-cache merge."""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.engine import CampaignManifest, ResultCache
from repro.engine.cache import merge_cache_dirs
from repro.errors import ConcurrencyError, ConfigError


@pytest.fixture()
def manifest(tmp_path):
    return CampaignManifest(tmp_path / "campaign-manifest.json")


class TestWriterLock:
    def test_second_live_writer_refused(self, manifest):
        other = CampaignManifest(manifest.path)
        with manifest.writer_lock():
            with pytest.raises(ConcurrencyError):
                with other.writer_lock():
                    pass  # pragma: no cover - must not be reached

    def test_lock_released_on_exit(self, manifest):
        with manifest.writer_lock():
            assert manifest.lock_path.exists()
        assert not manifest.lock_path.exists()
        with manifest.writer_lock():  # re-acquirable
            pass

    def test_stale_lock_with_dead_pid_is_broken(self, manifest):
        process = subprocess.Popen([sys.executable, "-c", "pass"])
        process.wait()
        manifest.lock_path.parent.mkdir(parents=True, exist_ok=True)
        manifest.lock_path.write_text(str(process.pid))
        with manifest.writer_lock():
            assert manifest._lock_holder() != process.pid

    def test_unreadable_lock_is_broken(self, manifest):
        manifest.lock_path.parent.mkdir(parents=True, exist_ok=True)
        manifest.lock_path.write_text("not-a-pid")
        with manifest.writer_lock():
            pass

    def test_released_after_exception(self, manifest):
        with pytest.raises(RuntimeError):
            with manifest.writer_lock():
                raise RuntimeError("boom")
        assert not manifest.lock_path.exists()


class TestCampaignIdentity:
    def test_bind_and_rebind_same_plan(self, manifest):
        manifest.bind_campaign({"plan": "abc", "shard": "0/2"})
        manifest.bind_campaign({"plan": "abc", "shard": "1/2"})
        assert manifest.campaign == {"plan": "abc", "shard": "1/2"}

    def test_rebind_to_different_plan_refused(self, manifest):
        manifest.bind_campaign({"plan": "abc"})
        with pytest.raises(ConfigError):
            manifest.bind_campaign({"plan": "xyz"})


class TestMarkManyComplete:
    def test_batch_mark(self, manifest):
        manifest.mark_many_complete(["run:a", "run:b"])
        assert manifest.completed == {"run:a", "run:b"}

    def test_empty_batch_writes_nothing(self, manifest):
        manifest.mark_many_complete([])
        assert not manifest.path.exists()


class TestMergeFrom:
    def _shard(self, tmp_path, name: str, plan: str = "abc"):
        shard = CampaignManifest(tmp_path / name / "campaign-manifest.json")
        shard.path.parent.mkdir(parents=True, exist_ok=True)
        shard.bind_campaign({"plan": plan, "shard": name})
        return shard

    def test_union_of_shard_points(self, manifest, tmp_path):
        a = self._shard(tmp_path, "0of2")
        b = self._shard(tmp_path, "1of2")
        a.mark_many_complete(["run:1", "run:2"])
        b.mark_many_complete(["run:3"])
        absorbed = manifest.merge_from(a, b)
        assert absorbed >= 3
        assert {"run:1", "run:2", "run:3"} <= manifest.completed
        # The union adopts the plan identity but is no single shard.
        assert manifest.campaign == {"plan": "abc"}

    def test_status_precedence(self, manifest, tmp_path):
        a = self._shard(tmp_path, "0of2")
        b = self._shard(tmp_path, "1of2")
        a.mark_failed("run:1", "transient host fault")
        b.mark_complete("run:1")
        manifest.merge_from(a, b)
        assert "run:1" in manifest.completed
        # Merging the failure again must not demote the completed point.
        manifest.merge_from(a)
        assert "run:1" in manifest.completed

    def test_different_campaigns_refused(self, manifest, tmp_path):
        a = self._shard(tmp_path, "0of2", plan="abc")
        other = self._shard(tmp_path, "other", plan="xyz")
        manifest.merge_from(a)
        with pytest.raises(ConfigError):
            manifest.merge_from(other)

    def test_merge_reentrant_under_own_lock(self, manifest, tmp_path):
        # The writer lock is reentrant within the owning thread, so a
        # caller already holding the lock may fold shards; exclusion
        # against *other* writers is TestWriterLock's
        # test_second_live_writer_refused.
        a = self._shard(tmp_path, "0of2")
        a.mark_many_complete(["run:1"])
        with manifest.writer_lock():
            assert manifest.merge_from(a) >= 1
        assert not manifest.lock_path.exists()
        assert "run:1" in manifest.completed


class TestMergeCacheDirs:
    def _cache(self, path, entries: dict[str, object]) -> ResultCache:
        cache = ResultCache(cache_dir=path)
        for key, value in entries.items():
            cache.put(key, value)
        return cache

    def test_union_and_skip_counts(self, tmp_path):
        key_a = "a" * 64
        key_b = "b" * 64
        key_shared = "c" * 64
        self._cache(tmp_path / "s0", {key_a: 1, key_shared: 3})
        self._cache(tmp_path / "s1", {key_b: 2, key_shared: 3})
        copied, skipped = merge_cache_dirs(
            tmp_path / "dest", tmp_path / "s0", tmp_path / "s1"
        )
        assert copied == 3
        assert skipped == 1  # the shared entry arrived with shard 0
        merged = ResultCache(cache_dir=tmp_path / "dest")
        assert merged.get(key_a) == 1
        assert merged.get(key_b) == 2
        assert merged.get(key_shared) == 3

    def test_idempotent(self, tmp_path):
        self._cache(tmp_path / "s0", {"d" * 64: 4})
        assert merge_cache_dirs(tmp_path / "dest", tmp_path / "s0") == (1, 0)
        assert merge_cache_dirs(tmp_path / "dest", tmp_path / "s0") == (0, 1)

    def test_quarantine_not_merged(self, tmp_path):
        self._cache(tmp_path / "s0", {"e" * 64: 5})
        quarantine = tmp_path / "s0" / "quarantine"
        quarantine.mkdir()
        (quarantine / "ff.pkl").write_bytes(b"torn pickle")
        merge_cache_dirs(tmp_path / "dest", tmp_path / "s0")
        assert not (tmp_path / "dest" / "quarantine").exists()

    def test_missing_source_ignored(self, tmp_path):
        assert merge_cache_dirs(
            tmp_path / "dest", tmp_path / "nonexistent"
        ) == (0, 0)
