"""The CLI in a fresh process, as a user runs it, for the ``smoke``
tests (``python -m pytest -m smoke``), and the counters its
``--profile`` block prints."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def env() -> dict[str, str]:
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


def repro(*args) -> str:
    """``python -m repro ARGS`` in a new process; its stdout.  A
    non-zero exit fails the calling test."""
    done = subprocess.run(
        [sys.executable, "-m", "repro", *map(str, args)],
        env=env(),
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return done.stdout


def counter(profile: str, name: str) -> int:
    """A ``--profile`` counter; the block omits counters that read 0."""
    match = re.search(rf"^{re.escape(name)}\s+(\d+)$", profile, re.M)
    return int(match.group(1)) if match else 0
