"""The TCP front end: framing, persistence, latency, shutdown."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.engine.cache import ResultCache
from repro.obs import Telemetry
from repro.serve import (
    NoiseServer,
    ServeClient,
    SimulationService,
    start_server,
)

from .conftest import program_payload


@pytest.fixture()
def endpoint(chip, cheap_options, telemetry):
    """A served TCP endpoint on an ephemeral port."""
    service = SimulationService(
        chip, cheap_options,
        cache=ResultCache(cache_dir=None, telemetry=telemetry),
        jobs=1, telemetry=telemetry,
    )
    server, thread = start_server(service, port=0)
    yield server, service
    server.shutdown()
    server.server_close()
    thread.join(10.0)
    service.stop()


def test_round_trip_and_persistent_connection(endpoint):
    server, _ = endpoint
    with ServeClient(port=server.port) as client:
        first = client.simulate([program_payload()])
        assert first["ok"] and first["tier"] == "executed"
        # Same socket, second request: hot replay.
        second = client.simulate([program_payload()])
        assert second["ok"] and second["tier"] == "hot"
        assert second["result"] == first["result"]
        health = client.health()
        assert health["ok"] and health["status"] == "ok"


def test_hot_tier_latency_under_50ms(endpoint):
    """Acceptance: a hot-tier query answers in under 50 ms (measured
    server-side — decode, lookup, encode; no engine involved)."""
    server, _ = endpoint
    with ServeClient(port=server.port) as client:
        client.simulate([program_payload()])  # warm the hot tier
        for _ in range(5):
            reply = client.simulate([program_payload()])
            assert reply["tier"] == "hot"
            assert reply["elapsed_ms"] < 50.0


def test_malformed_line_keeps_the_connection(endpoint):
    server, _ = endpoint
    with socket.create_connection(("127.0.0.1", server.port), 10) as raw:
        stream = raw.makefile("rwb")
        stream.write(b"this is not json\n")
        stream.flush()
        error_reply = stream.readline()
        assert b"bad-request" in error_reply
        # Connection survives: a well-formed request still answers.
        stream.write(b'{"op": "health"}\n')
        stream.flush()
        assert b'"ok": true' in stream.readline()


def test_concurrent_clients_coalesce_over_tcp(endpoint, telemetry):
    """N parallel sockets asking the identical cold question produce
    one execution — the wire-level version of the coalescing test."""
    server, _ = endpoint
    replies: list[dict] = [None] * 6

    def client(slot: int) -> None:
        with ServeClient(port=server.port) as connection:
            replies[slot] = connection.simulate([program_payload()])

    threads = [
        threading.Thread(target=client, args=(slot,)) for slot in range(6)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30.0)
    assert all(reply["ok"] for reply in replies)
    assert telemetry.counter("serve.executed") == 1
    assert telemetry.counter("engine.runs_executed") == 1
    assert {reply["fingerprint"] for reply in replies} == {
        replies[0]["fingerprint"]
    }


def test_shutdown_request_stops_the_server(chip, cheap_options):
    telemetry = Telemetry()
    service = SimulationService(
        chip, cheap_options,
        cache=ResultCache(cache_dir=None, telemetry=telemetry),
        jobs=1, telemetry=telemetry,
    )
    server, thread = start_server(service, port=0)
    try:
        with ServeClient(port=server.port) as client:
            reply = client.shutdown()
            assert reply["ok"] is True and reply["stopping"] is True
        thread.join(10.0)
        assert not thread.is_alive(), "serve_forever must return"
    finally:
        server.server_close()
        service.stop()


def test_server_exposes_bound_port(chip, cheap_options):
    service = SimulationService(
        chip, cheap_options,
        cache=ResultCache(cache_dir=None), jobs=1,
        telemetry=Telemetry(),
    )
    server = NoiseServer(("127.0.0.1", 0), service)
    try:
        assert server.port > 0
    finally:
        server.server_close()
