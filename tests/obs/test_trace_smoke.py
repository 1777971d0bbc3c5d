"""A traced campaign, as a user runs it.

One ``repro --quick --jobs 2 --trace-file LOG run fig7a fig11a``
process must leave a schema-valid JSONL event log with the campaign
lifecycle in it; ``profile LOG --chrome-trace TRACE`` must render that
log and write a Chrome trace with duration slices.  Run only the smoke
checks with ``python -m pytest -m smoke``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs import read_events, validate_event_log

from ..smoke import repro

pytestmark = pytest.mark.smoke

BENCH_FIG11A = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "BENCH_fig11a.json"
)


@pytest.fixture(scope="module")
def event_log(tmp_path_factory) -> Path:
    """The log of one traced parallel campaign (the process must exit 0)."""
    log = tmp_path_factory.mktemp("trace") / "events.jsonl"
    repro(
        "--quick", "--jobs", "2", "--trace-file", log, "run", "fig7a", "fig11a"
    )
    assert log.is_file() and log.stat().st_size > 0, "no event log written"
    return log


def test_event_log_is_schema_valid_with_the_campaign_lifecycle(event_log):
    n_valid, errors = validate_event_log(event_log)
    assert not errors, f"event log failed schema validation: {errors}"
    assert n_valid > 0
    kinds = {event["event"] for event in read_events(event_log)}
    required = {
        "campaign.started",
        "experiment.started",
        "experiment.completed",
        "campaign.completed",
        "span",
    }
    assert not required - kinds, (
        f"event log missing lifecycle events: {required - kinds}"
    )
    assert kinds & {"run.scheduled", "run.cached"}, (
        "event log recorded no run lifecycle at all"
    )


def test_profile_renders_and_writes_a_chrome_trace(event_log):
    trace = event_log.parent / "trace.json"
    report = repro("profile", event_log, "--chrome-trace", trace)
    assert "campaign profile" in report
    assert "span tree" in report
    events = json.loads(trace.read_text())["traceEvents"]
    assert any(event.get("ph") == "X" for event in events), (
        "chrome trace has no duration slices"
    )


def test_fig11a_benchmark_baseline_is_well_formed():
    baseline = json.loads(BENCH_FIG11A.read_text())
    assert baseline["cold_s"] > baseline["cached_s"] > 0
