"""``family run`` keeps ``run``'s campaign semantics on every member:
an experiment that loses a run fails by name and the rest export, and
a traced family run writes one campaign's events.  The CLI runs in
this process, on a fresh result cache and telemetry sink."""

from __future__ import annotations

import json

import pytest

from repro.obs import follow_profile, read_events, validate_event_log

#: Loses one fig11a run on quick/cores4 (and on the reference chip),
#: and no retry absorbs it.
PERMANENT_FAULT = "exception=0.05,permanent,seed=3"


@pytest.fixture
def faulty(cli, monkeypatch):
    """Runs of the ``cli`` fixture lose runs under PERMANENT_FAULT."""
    monkeypatch.setenv("REPRO_FAULTS", PERMANENT_FAULT)
    monkeypatch.setenv("REPRO_MAX_RETRIES", "0")


class TestPermanentFault:
    def test_family_run_fails_the_experiment_by_name(self, cli, faulty,
                                                     tmp_path):
        out = tmp_path / "fam"
        status, _, err = cli(
            "--quick", "--max-retries", "0",
            "family", "run", "quick", "fig11a", "fig7b",
            "--members", "cores4", "--output", out,
        )
        assert status == 1
        assert "error in fig11a" in err
        for name in ("fig7b.json", "fig7b.txt", "telemetry.json"):
            assert (out / "cores4" / name).exists(), name
        assert not (out / "cores4" / "fig11a.json").exists()
        assert json.loads((out / "cores4" / "index.json").read_text()) == {
            "fig7b": "Impedance profile Z(f)"
        }
        assert (out / "family-results.json").exists()

    def test_run_fails_it_the_same_way(self, cli, faulty, tmp_path):
        out = tmp_path / "run"
        status, _, err = cli(
            "--quick", "--max-retries", "0",
            "run", "fig11a", "fig7b", "--output", out,
        )
        assert status == 1
        assert "error in fig11a" in err
        assert (out / "fig7b.json").exists()
        assert not (out / "fig11a.json").exists()


class TestTracedFamilyRun:
    def test_one_campaign_in_the_event_log(self, cli, tmp_path):
        status, _, _ = cli(
            "--quick", "--trace", "family", "run", "quick", "fig7b",
            "--output", tmp_path / "fam",
        )
        assert status == 0
        log = tmp_path / "fam" / "events.jsonl"
        n_valid, errors = validate_event_log(log)
        assert errors == []
        assert n_valid > 0
        kinds = [event["event"] for event in read_events(log)]
        assert kinds.count("campaign.started") == 1
        assert kinds.count("campaign.completed") == 1
        assert kinds.count("experiment.completed") == 3  # one per member

        polls: list[float] = []
        profiles = list(follow_profile(
            log, interval=0.0, sleep=polls.append,
            stop=lambda: len(polls) >= 3,
        ))
        assert polls == [], "follow never saw campaign.completed"
        assert profiles[-1].experiments == ["fig7b"]
