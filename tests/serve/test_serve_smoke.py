"""The simulation service end to end over real TCP, as a user runs it.

One ``repro --quick serve --port 0`` process and the ``query`` verb's
own client processes: 20 concurrent queries over 2 distinct
fingerprints must coalesce onto exactly 2 executions (read from the
wire-reported metrics), a repeat query must answer from the hot tier
within budget, and a ``--shutdown`` request must stop the server
cleanly.  Run only these with ``python -m pytest -m smoke``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

pytestmark = pytest.mark.smoke

SRC = Path(__file__).resolve().parents[2] / "src"

#: The hot tier's reply budget (ms) for a repeated query.
HOT_BUDGET_MS = 50


def _env() -> dict[str, str]:
    """The caller's environment without ``REPRO_*`` settings (so the
    server's cache is memory-only), with this checkout's ``src/`` on
    ``PYTHONPATH``."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    return env


def _query(port: int, *args: str) -> str:
    done = subprocess.run(
        [sys.executable, "-m", "repro", "query", "--port", str(port), *args],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return done.stdout


def _wait_for_port(server: subprocess.Popen, log: Path) -> int:
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        match = re.search(r"serving on [^\s:]+:(\d+)", log.read_text())
        if match:
            return int(match.group(1))
        if server.poll() is not None:
            break
        time.sleep(0.05)
    raise AssertionError(f"server did not start:\n{log.read_text()}")


def test_coalescing_hot_tier_and_clean_shutdown(tmp_path):
    log = tmp_path / "serve.log"
    with log.open("w") as sink:
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "--quick", "serve", "--port", "0"],
            stdout=sink,
            stderr=subprocess.STDOUT,
            env=_env(),
        )
    try:
        port = _wait_for_port(server, log)

        # 20 concurrent queries, 2 distinct fingerprints.
        _query(
            port, "--repeat", "20", "--concurrency", "8", "--distinct", "2",
            "--retry-busy", "3",
        )

        # Single-flight coalescing, from the wire-reported metrics.
        counters = json.loads(_query(port, "--metrics"))["metrics"][
            "counters"
        ]
        executed = counters.get("serve.executed", 0)
        coalesced = counters.get("serve.tier.coalesced", 0)
        hot = counters.get("serve.tier.hot", 0)
        cache = counters.get("serve.tier.cache", 0)
        assert executed == 2, (
            f"2 distinct fingerprints must execute exactly twice "
            f"(executed={executed})"
        )
        assert counters.get("engine.runs_executed", 0) == 2, (
            "engine executed more runs than the service reported"
        )
        assert coalesced + hot + cache == 18, (
            f"the other 18 replies must replay without executing "
            f"(coalesced={coalesced}, hot={hot}, cache={cache})"
        )
        assert counters.get("serve.requests", 0) >= 20

        # A repeat query answers from the hot tier within budget.
        reply = json.loads(_query(port, "--json").splitlines()[0])
        assert reply["tier"] == "hot"
        assert reply["elapsed_ms"] < HOT_BUDGET_MS

        # Clean shutdown.
        _query(port, "--shutdown")
        assert server.wait(timeout=30) == 0
        assert "served " in log.read_text()
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
