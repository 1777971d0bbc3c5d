"""The disk cache across processes, as a user runs it.

Two ``repro --quick --cache-dir C run fig7a --profile`` processes over
one cache dir: the cold one must write its runs to disk, the warm one
must replay them from disk and execute nothing.  ``plan`` over
overlapping figures must report runs shared between them.  Run only
the smoke checks with ``python -m pytest -m smoke``.
"""

from __future__ import annotations

import re

import pytest

from ..smoke import counter, repro

pytestmark = pytest.mark.smoke


def _repro(*args: str) -> str:
    return repro("--quick", *args)


def test_disk_cache_replays_across_processes(tmp_path):
    cache = str(tmp_path / "cache")
    cold = _repro("--cache-dir", cache, "run", "fig7a", "--profile")
    assert counter(cold, "engine.cache.disk_writes") > 0, (
        "cold run wrote nothing to the disk cache"
    )
    warm = _repro("--cache-dir", cache, "run", "fig7a", "--profile")
    assert counter(warm, "engine.cache.disk_hits") > 0, (
        "warm run did not hit the disk cache"
    )
    assert counter(warm, "engine.runs_executed") == 0, (
        "warm run re-executed runs it should have replayed"
    )

    plan = _repro("plan", "fig7a", "fig9", "fig11a", "fig13a")
    savings = re.search(r"dedup savings\s*:\s*(\d+)", plan)
    assert savings, f"plan printed no dedup savings:\n{plan}"
    assert int(savings.group(1)) > 0, (
        "overlapping figures must dedup to fewer runs"
    )
