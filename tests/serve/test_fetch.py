"""The ``fetch`` verb: raw disk-tier payload retrieval by fingerprint
(what fleet workers probe before executing a claimed run)."""

from __future__ import annotations

import base64
import pickle

import pytest

from repro.engine.cache import ResultCache
from repro.obs import Telemetry
from repro.serve import ServeClient, SimulationService, start_server

from .conftest import simulate_payload


@pytest.fixture()
def disk_service(chip, cheap_options, telemetry, tmp_path):
    """A started service over a *disk* cache (fetch only ever answers
    from the disk tier)."""
    svc = SimulationService(
        chip, cheap_options,
        cache=ResultCache(cache_dir=tmp_path / "cache", telemetry=telemetry),
        jobs=1, telemetry=telemetry,
    ).start()
    yield svc
    svc.stop()


class TestPeekBytes:
    def test_round_trips_the_stored_pickle(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        key = "a" * 64
        cache.put(key, {"value": 42})
        raw = cache.peek_bytes(key)
        assert raw is not None
        assert pickle.loads(raw) == {"value": 42}

    def test_missing_key_is_none(self, tmp_path):
        assert ResultCache(cache_dir=tmp_path).peek_bytes("b" * 64) is None

    def test_memory_only_cache_has_no_bytes(self):
        cache = ResultCache(cache_dir=None)
        cache.put("c" * 64, 1)
        assert cache.peek_bytes("c" * 64) is None


class TestFetchOp:
    def test_hit_returns_the_exact_disk_bytes(self, disk_service, telemetry):
        fingerprint = disk_service.handle(simulate_payload())["fingerprint"]
        reply = disk_service.handle(
            {"op": "fetch", "fingerprint": fingerprint}
        )
        assert reply["ok"] and reply["status"] == "hit"
        raw = base64.b64decode(reply["payload"])
        assert raw == disk_service.cache.peek_bytes(fingerprint)
        assert telemetry.counter("serve.fetch_hits") == 1

    def test_miss_is_not_an_error(self, disk_service, telemetry):
        reply = disk_service.handle(
            {"op": "fetch", "fingerprint": "f" * 64}
        )
        assert reply["ok"] and reply["status"] == "miss"
        assert reply["payload"] is None
        assert telemetry.counter("serve.fetch_misses") == 1

    def test_missing_fingerprint_is_a_bad_request(self, disk_service,
                                                  telemetry):
        reply = disk_service.handle({"op": "fetch"})
        assert reply["ok"] is False
        assert telemetry.counter("serve.bad_requests") == 1


class TestClientFetch:
    def test_fetch_over_tcp(self, disk_service):
        server, thread = start_server(disk_service, port=0)
        try:
            fingerprint = disk_service.handle(
                simulate_payload()
            )["fingerprint"]
            with ServeClient(port=server.port) as client:
                raw = client.fetch(fingerprint)
                assert raw == disk_service.cache.peek_bytes(fingerprint)
                assert client.fetch("e" * 64) is None
        finally:
            server.shutdown()
            server.server_close()
            thread.join(10.0)
