"""The chip-family layer end to end, as a user runs it.

Expand the quick family (the reference member carries the pinned
default digest) and plan it per member; run fig11a across every member
cold and then again over the same cache; check that the cached family
run replays everything with byte-identical member exports, that the
reference member's export equals a plain single-chip run's, and that
the family cache answers that plain run with zero executions (the
family layer leaves the default chip's cache keys alone).  Then plan
the whole registry on every member and run the sensitivity figures
(fig10, fig12) across the family; the reference member's exports must
equal a standalone run's.  Run only the smoke checks with
``python -m pytest -m smoke``.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from ..smoke import counter, repro

pytestmark = pytest.mark.smoke


def _assert_same_exports(left: Path, right: Path, *figures: str) -> None:
    for figure in figures:
        for ext in ("json", "txt"):
            name = f"{figure}.{ext}"
            assert (left / name).read_bytes() == (right / name).read_bytes(), (
                f"{left / name} differs from {right / name}"
            )


def test_expand_pins_the_reference_member():
    expand = repro("family", "expand", "quick")
    assert "cores4" in expand
    assert re.search(r"cores6 .* 8801bcaeb928b786", expand)
    assert "cores8" in expand


def test_plan_accounts_per_member():
    plan = repro("--quick", "family", "plan", "quick", "fig11a")
    assert "3 member(s)" in plan
    assert "dedup savings  : 0" in plan


def test_whole_registry_plans_on_every_member():
    repro("--quick", "family", "plan", "quick", "all")


def test_family_runs_replay_and_match_standalone_runs(tmp_path):
    cache = tmp_path / "fam-cache"
    cold = tmp_path / "fam-cold"
    repro("--quick", "--cache-dir", cache,
          "family", "run", "quick", "fig11a", "--output", cold)

    cached = tmp_path / "fam-cached"
    profile = repro("--quick", "--cache-dir", cache,
                    "family", "run", "quick", "fig11a",
                    "--output", cached, "--profile")
    assert counter(profile, "engine.runs_executed") == 0, (
        "a cached family run must replay the whole family"
    )
    for member in ("cores4", "cores6", "cores8"):
        _assert_same_exports(cold / member, cached / member, "fig11a")

    default = tmp_path / "results-default"
    profile = repro("--quick", "--cache-dir", cache,
                    "run", "fig11a", "--output", default, "--profile")
    _assert_same_exports(cold / "cores6", default, "fig11a")
    assert counter(profile, "engine.runs_executed") == 0, (
        "a family-populated cache must replay a plain default-chip run: "
        "the family layer changed default cache keys"
    )

    sensitivity = tmp_path / "fam-sens"
    repro("--quick", "--cache-dir", cache,
          "family", "run", "quick", "fig10", "fig12",
          "--output", sensitivity)
    standalone = tmp_path / "sens-default"
    repro("--quick", "--cache-dir", cache,
          "run", "fig10", "fig12", "--output", standalone)
    _assert_same_exports(sensitivity / "cores6", standalone, "fig10", "fig12")
