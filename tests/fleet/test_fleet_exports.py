"""``fleet --output`` exports the experiments itself, from the folded
cache: what ``run --output`` exports, and nothing re-executed.  An
experiment whose runs the fleet left unfinished fails by name without
its driver running; the others export."""

from __future__ import annotations

import json

import pytest

from ..smoke import counter, repro

pytestmark = pytest.mark.smoke


def test_fleet_exports_equal_a_serial_run(tmp_path):
    fleet = tmp_path / "D"
    repro("--quick", "fleet", "fig7a", "--output", fleet,
          "--workers", "2", "--batch", "2")
    serial = tmp_path / "S"
    repro("--quick", "run", "fig7a", "--output", serial)
    for name in ("fig7a.json", "fig7a.txt", "index.json"):
        assert (fleet / name).read_bytes() == (serial / name).read_bytes(), (
            name
        )
    profile = repro("--quick", "--cache-dir", fleet / "cache",
                    "run", "fig7a", "--profile")
    assert counter(profile, "engine.runs_executed") == 0


def test_unfinished_runs_fail_their_experiment(cli, driver_calls, tmp_path):
    """The workers drain at once, so none of fig7a's runs completes."""
    out = tmp_path / "D"
    status, _, err = cli("--quick", "fleet", "fig7a", "fig7b",
                         "--output", out, "--workers", "1",
                         "--fleet-timeout", "0.01")
    assert status == 1
    assert "error in fig7a" in err
    assert driver_calls == ["fig7b"]
    assert (out / "fig7b.json").exists() and (out / "fig7b.txt").exists()
    assert not (out / "fig7a.json").exists()
    points = json.loads((out / "campaign-manifest.json").read_text())["points"]
    assert points["fig7a"]["status"] == "failed"
    assert points["fig7b"]["status"] == "complete"
