"""The reproduction contract's one campaign: a full-fidelity
``repro-noise run all``, run once per test session.

It runs in a subprocess, so the environment the CLI exports for its
sessions and the process-wide result cache stay out of the other
tests, and it starts from an empty cache, so every figure is solved.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

#: The committed exports and their digests.
RESULTS = ROOT / "results"


@pytest.fixture(scope="session")
def full_run(tmp_path_factory) -> Path:
    """The export directory of one full-fidelity ``run all``."""
    out = tmp_path_factory.mktemp("contract") / "out"
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, "-m", "repro", "run", "all", "--output", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    return out
