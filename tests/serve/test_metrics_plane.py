"""The serve metrics plane: percentiles, exposition, SLOs, scrape."""

from __future__ import annotations

import time
import urllib.error
import urllib.request

import pytest

from repro.engine.cache import ResultCache
from repro.obs import SLO, SloPolicy, parse_prometheus_text
from repro.serve import SimulationService, start_metrics_http

from .conftest import simulate_payload


@pytest.fixture()
def manual_service(chip, cheap_options, telemetry):
    """A started service with the ticker disabled: tests drive
    :meth:`tick_metrics` with pinned timestamps."""
    svc = SimulationService(
        chip,
        cheap_options,
        cache=ResultCache(cache_dir=None, telemetry=telemetry),
        jobs=1,
        telemetry=telemetry,
        window_s=0.0,
    ).start()
    yield svc
    svc.stop()


class TestMetricsVerb:
    def test_percentiles_cover_overall_and_tiers(self, manual_service):
        manual_service.handle(simulate_payload())  # executed
        manual_service.handle(simulate_payload())  # hot
        reply = manual_service.handle({"op": "metrics"})
        assert reply["ok"]
        percentiles = reply["percentiles"]
        overall = percentiles["serve.request.seconds"]
        assert overall["count"] == 2
        for key in ("p50", "p95", "p99", "mean", "max"):
            assert key in overall
        assert overall["p50"] <= overall["p95"] <= overall["p99"]
        assert percentiles["serve.request.hot.seconds"]["count"] == 1
        assert percentiles["serve.request.executed.seconds"]["count"] == 1
        # Tiers that answered nothing are omitted, not zero-filled.
        assert "serve.request.cache.seconds" not in percentiles

    def test_metrics_reply_carries_slo_and_window_shape(
        self, manual_service
    ):
        manual_service.tick_metrics(now=100.0)
        manual_service.handle(simulate_payload())
        manual_service.tick_metrics(now=105.0)
        reply = manual_service.handle({"op": "metrics"})
        assert reply["window_s"] == 0.0
        assert reply["windows"] == 1
        names = {status["slo"] for status in reply["slo"]}
        assert {"hot-latency", "error-rate"} <= names


class TestMetricsText:
    def test_verb_returns_parseable_exposition(self, manual_service):
        manual_service.handle(simulate_payload())
        manual_service.handle(simulate_payload())
        reply = manual_service.handle({"op": "metrics_text"})
        assert reply["ok"]
        samples = parse_prometheus_text(reply["text"])
        assert samples["repro_serve_requests_total"]
        assert any(
            name.startswith("repro_serve_request_seconds_bucket")
            for name in samples
        )
        # Every sample carries the chip label.
        for name, by_labels in samples.items():
            for labels in by_labels:
                assert "chip" in dict(labels), name

    def test_gauges_expose_hit_ratio_qps_and_windowed_p95(
        self, manual_service
    ):
        manual_service.tick_metrics(now=100.0)
        manual_service.handle(simulate_payload())
        manual_service.handle(simulate_payload())
        manual_service.handle(simulate_payload())
        manual_service.tick_metrics(now=102.0)
        gauges = manual_service.gauges()
        # 1 executed + 2 hot replies → 2/3 answered without the engine.
        assert gauges["serve.tier.hit.ratio"] == pytest.approx(2 / 3)
        assert gauges["serve.qps"] == pytest.approx(1.5)
        assert gauges["serve.request.p95.seconds"] is not None
        assert gauges["serve.slo.hot_latency.burn.rate"] is not None
        samples = parse_prometheus_text(
            manual_service.handle({"op": "metrics_text"})["text"]
        )
        assert "repro_serve_qps" in samples
        assert "repro_serve_tier_hit_ratio" in samples
        assert "repro_serve_request_p95_seconds" in samples


class TestSlo:
    def test_impossible_latency_target_trips_violation(
        self, chip, cheap_options, telemetry
    ):
        tight = SloPolicy([SLO(
            name="impossible", kind="latency", budget=0.001,
            histogram="serve.request.executed.seconds",
            threshold_s=1e-4,
        )])
        svc = SimulationService(
            chip, cheap_options,
            cache=ResultCache(cache_dir=None, telemetry=telemetry),
            jobs=1, telemetry=telemetry,
            window_s=0.0, slo=tight,
        ).start()
        try:
            svc.tick_metrics(now=10.0)
            svc.handle(simulate_payload())
            svc.tick_metrics(now=15.0)
        finally:
            svc.stop()
        assert telemetry.counter("slo.violations.impossible") == 1
        (status,) = svc.handle({"op": "metrics"})["slo"]
        assert status["violated"]
        assert status["burn_rate"] > 1.0

    def test_quiet_windows_do_not_violate(self, manual_service, telemetry):
        manual_service.tick_metrics(now=10.0)
        manual_service.tick_metrics(now=15.0)
        assert telemetry.counter("slo.evaluations") == 1
        assert telemetry.counter("slo.violations") == 0


class TestTicker:
    def test_background_ticker_accumulates_windows(
        self, chip, cheap_options, telemetry
    ):
        svc = SimulationService(
            chip, cheap_options,
            cache=ResultCache(cache_dir=None, telemetry=telemetry),
            jobs=1, telemetry=telemetry,
            window_s=0.02,
        ).start()
        try:
            deadline = time.monotonic() + 10.0
            while len(svc.series) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(svc.series) >= 2
        finally:
            svc.stop()
        assert svc._ticker is None or not svc._ticker.is_alive()

    def test_first_window_counts_requests_made_right_after_start(
        self, chip, cheap_options, telemetry
    ):
        """``serve.requests`` counts on arrival, so the request lands in
        the first window however long its solve takes — provided the
        baseline was taken when the ticker started, not one window
        later."""
        svc = SimulationService(
            chip, cheap_options,
            cache=ResultCache(cache_dir=None, telemetry=telemetry),
            jobs=1, telemetry=telemetry,
            window_s=0.5,
        ).start()
        try:
            assert svc.handle(simulate_payload())["ok"]
            deadline = time.monotonic() + 10.0
            while len(svc.series) < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            first = svc.series.last(len(svc.series))[0]
        finally:
            svc.stop()
        assert first.delta("serve.requests") == 1


class TestHttpScrape:
    def test_scrape_twice_is_monotone_and_hygienic(self, manual_service):
        server, thread = start_metrics_http(manual_service, port=0)
        try:
            url = f"http://127.0.0.1:{server.port}/metrics"

            def scrape():
                with urllib.request.urlopen(url, timeout=10) as response:
                    assert response.status == 200
                    assert "text/plain" in response.headers["Content-Type"]
                    return parse_prometheus_text(
                        response.read().decode("utf-8")
                    )

            manual_service.handle(simulate_payload())
            first = scrape()
            manual_service.handle(simulate_payload())
            second = scrape()
            for name, by_labels in first.items():
                if not name.endswith("_total"):
                    continue  # gauges may move either way
                for labels, value in by_labels.items():
                    assert second[name][labels] >= value, name
            requests = "repro_serve_requests_total"
            (before,) = first[requests].values()
            (after,) = second[requests].values()
            assert after == before + 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)

    def test_healthz_and_unknown_paths(self, manual_service):
        server, thread = start_metrics_http(manual_service, port=0)
        try:
            base = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(base + "/healthz", timeout=10) as r:
                assert r.status == 200
                assert b'"ok"' in r.read() or b"ok" in r.read()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(base + "/nope", timeout=10)
            assert excinfo.value.code == 404
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)
