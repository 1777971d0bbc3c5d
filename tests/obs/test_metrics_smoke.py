"""The live metrics plane end to end, over real TCP and HTTP ports.

One ``repro --quick serve --port 0 --http-metrics 0`` process with a
1 s metrics window and a deliberately impossible latency SLO, loaded by
the ``query`` verb's own client processes.  Two ``/metrics`` scrapes
across two load bursts must parse with the repo's strict parser (which
doubles as the label-hygiene check), expose the key operational series
and keep every counter monotone; the SLO must trip, both as a counter
in the ``metrics`` verb and as a structured ``slo.violation`` event in
the traced event log; the ``metrics_text`` verb must parse too; and a
``--shutdown`` request must stop the server.  Run only these with
``python -m pytest -m smoke``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.obs import parse_prometheus_text
from repro.serve import ServeClient

from ..smoke import env, repro

pytestmark = pytest.mark.smoke

#: Every cold execution must finish in 100 us: no run can meet it.
IMPOSSIBLE_SLO = {"slos": [
    {"name": "impossible-latency", "kind": "latency",
     "budget": 0.001,
     "histogram": "serve.request.executed.seconds",
     "threshold_s": 0.0001,
     "description": "every cold execution must finish in 100 us"},
]}

#: Series the second scrape must expose.
SERIES = (
    "repro_serve_requests_total",
    "repro_serve_qps",
    "repro_serve_tier_hit_ratio",
    "repro_serve_request_p95_seconds",
    "repro_serve_request_seconds_bucket",
    "repro_serve_request_seconds_count",
    "repro_serve_slo_impossible_latency_burn_rate",
)

#: One load burst: 30 queries over 3 distinct fingerprints.
BURST = ("--repeat", "30", "--concurrency", "4", "--distinct", "3",
         "--retry-busy", "3")


def _wait_for_ports(server: subprocess.Popen, log: Path) -> tuple[int, int]:
    """The serve and scrape ports from the ``serving on`` and
    ``metrics on http://`` banner lines."""
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        text = log.read_text()
        serving = re.search(r"serving on [^\s:]+:(\d+)", text)
        metrics = re.search(r"metrics on http://[^\s:]+:(\d+)/metrics", text)
        if serving and metrics:
            return int(serving.group(1)), int(metrics.group(1))
        if server.poll() is not None:
            break
        time.sleep(0.05)
    raise AssertionError(f"server did not start:\n{log.read_text()}")


def _wait_for_first_window(port: int) -> None:
    """Wait until the ticker has closed one metrics window, so its
    baseline predates the load and the window that sees the first
    burst's executions is evaluated against the SLO."""
    deadline = time.monotonic() + 30.0
    with ServeClient(port=port) as client:
        while client.metrics()["windows"] < 1:
            assert time.monotonic() < deadline, "no metrics window closed"
            time.sleep(0.1)


def _scrape(port: int) -> dict:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/metrics", timeout=30
    ) as reply:
        assert reply.status == 200
        return parse_prometheus_text(reply.read().decode())


def test_scrapes_slo_burn_and_clean_shutdown(tmp_path):
    slo = tmp_path / "slo.json"
    slo.write_text(json.dumps(IMPOSSIBLE_SLO))
    events = tmp_path / "serve-events.jsonl"
    log = tmp_path / "serve.log"
    with log.open("w") as sink:
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "--quick", "--trace-file",
             str(events), "serve", "--port", "0", "--http-metrics", "0",
             "--metrics-window", "1", "--slo", str(slo)],
            stdout=sink,
            stderr=subprocess.STDOUT,
            env=env(),
        )
    try:
        port, http_port = _wait_for_ports(server, log)
        banner = log.read_text()
        assert "serving on" in banner
        assert "metrics on http" in banner
        _wait_for_first_window(port)

        # Load, then scrape twice across more load.
        repro("query", "--port", port, *BURST)
        time.sleep(2)
        first = _scrape(http_port)
        repro("query", "--port", port, *BURST)
        time.sleep(2)
        second = _scrape(http_port)

        # Both scrapes parsed cleanly; the signals are present.
        missing = [name for name in SERIES if name not in second]
        assert not missing, f"scrape is missing {missing}"
        regressed = sorted({
            name
            for name, by_labels in first.items()
            if name.endswith(("_total", "_count", "_bucket"))
            for labels, value in by_labels.items()
            if second.get(name, {}).get(labels, 0) < value
        })
        assert not regressed, (
            f"counters went backwards between scrapes: {regressed}"
        )
        (requests1,) = first["repro_serve_requests_total"].values()
        (requests2,) = second["repro_serve_requests_total"].values()
        assert requests2 >= requests1 + 30, (
            "second scrape must reflect the second load burst"
        )
        (ratio,) = second["repro_serve_tier_hit_ratio"].values()
        assert 0.0 < ratio <= 1.0, (
            f"tier hit ratio must be in (0, 1] under this load ({ratio})"
        )

        # The impossible SLO burned and emitted violations.
        reply = json.loads(repro("query", "--port", port, "--metrics"))
        counters = reply["metrics"]["counters"]
        assert counters.get("slo.violations.impossible-latency", 0) >= 1, (
            "the impossible latency SLO never tripped"
        )
        statuses = {status["slo"]: status for status in reply["slo"]}
        assert "impossible-latency" in statuses, (
            "metrics reply carries no status for the SLO"
        )
        assert '"event": "slo.violation"' in events.read_text()

        # The TCP metrics_text verb parses like the HTTP exposition.
        verb = parse_prometheus_text(
            repro("query", "--port", port, "--metrics-text")
        )
        assert "repro_serve_requests_total" in verb

        # Clean shutdown.
        repro("query", "--port", port, "--shutdown")
        server.wait(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
