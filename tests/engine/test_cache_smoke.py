"""The disk cache across processes, as a user runs it.

Two ``repro --quick --cache-dir C run fig7a --profile`` processes over
one cache dir: the cold one must write its runs to disk, the warm one
must replay them from disk and execute nothing.  ``plan`` over
overlapping figures must report runs shared between them.  Run only
the smoke checks with ``python -m pytest -m smoke``.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.smoke

SRC = Path(__file__).resolve().parents[2] / "src"


def _env() -> dict[str, str]:
    """The caller's environment without ``REPRO_*`` settings, with this
    checkout's ``src/`` on ``PYTHONPATH``."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    return env


def _repro(*args: str) -> str:
    done = subprocess.run(
        [sys.executable, "-m", "repro", "--quick", *args],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return done.stdout


def _counter(profile: str, name: str) -> int:
    """A ``--profile`` counter; the block omits counters that read 0."""
    match = re.search(rf"^{re.escape(name)}\s+(\d+)$", profile, re.M)
    return int(match.group(1)) if match else 0


def test_disk_cache_replays_across_processes(tmp_path):
    cache = str(tmp_path / "cache")
    cold = _repro("--cache-dir", cache, "run", "fig7a", "--profile")
    assert _counter(cold, "engine.cache.disk_writes") > 0, (
        "cold run wrote nothing to the disk cache"
    )
    warm = _repro("--cache-dir", cache, "run", "fig7a", "--profile")
    assert _counter(warm, "engine.cache.disk_hits") > 0, (
        "warm run did not hit the disk cache"
    )
    assert _counter(warm, "engine.runs_executed") == 0, (
        "warm run re-executed runs it should have replayed"
    )

    plan = _repro("plan", "fig7a", "fig9", "fig11a", "fig13a")
    savings = re.search(r"dedup savings\s*:\s*(\d+)", plan)
    assert savings, f"plan printed no dedup savings:\n{plan}"
    assert int(savings.group(1)) > 0, (
        "overlapping figures must dedup to fewer runs"
    )
