"""Event log tests: incremental writes, schema validation, torn tails."""

from __future__ import annotations

import json
import re
from pathlib import Path

import repro
from repro.obs import (
    EVENT_TYPES,
    EventLog,
    Telemetry,
    iter_events,
    read_events,
    validate_event,
    validate_event_log,
)


class TestEventLog:
    def test_emit_appends_one_json_line_per_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("run.scheduled", run="a")
            log.emit("run.completed", run="a", dur_s=0.5, attempts=1)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["event"] == "run.scheduled"
        assert first["run"] == "a"
        assert isinstance(first["ts"], float)

    def test_records_are_readable_before_close(self, tmp_path):
        # Incremental flushing: a concurrent reader (or a post-mortem
        # of a killed campaign) sees every event already emitted.
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.emit("campaign.started", experiments=["fig7a"])
        assert read_events(path)[0]["event"] == "campaign.started"
        log.close()

    def test_tuple_fields_are_jsonified(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("run.cached", run=("fsweep", True, 2.6e6))
        (record,) = read_events(path)
        assert record["run"] == ["fsweep", True, 2.6e6]

    def test_rich_objects_fall_back_to_repr(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("run.failed", error=ValueError("boom"))
        (record,) = read_events(path)
        assert "boom" in record["error"]

    def test_append_mode_preserves_prior_trace(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("campaign.started")
        with EventLog(path) as log:
            log.emit("campaign.completed", status=0)
        assert [r["event"] for r in read_events(path)] == [
            "campaign.started", "campaign.completed",
        ]

    def test_telemetry_emit_routes_to_attached_log(self, tmp_path):
        telemetry = Telemetry()
        telemetry.emit("run.started", run="x")  # no sink: silent no-op
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            telemetry.enable_tracing(events=log)
            telemetry.emit("run.started", run="x")
            with telemetry.span("session.execute", runs=3):
                pass
        events = read_events(path)
        assert [r["event"] for r in events] == ["run.started", "span"]
        assert events[1]["name"] == "session.execute"
        assert events[1]["meta_runs"] == 3


class TestValidation:
    def test_valid_record(self):
        assert validate_event({"ts": 1.0, "event": "run.started"}) == []

    def test_unknown_type_rejected(self):
        errors = validate_event({"ts": 1.0, "event": "run.vanished"})
        assert any("unknown event type" in e for e in errors)

    def test_missing_ts_rejected(self):
        errors = validate_event({"event": "run.started"})
        assert any("'ts'" in e for e in errors)

    def test_boolean_ts_rejected(self):
        errors = validate_event({"ts": True, "event": "run.started"})
        assert any("'ts'" in e for e in errors)

    def test_span_needs_reconstruction_fields(self):
        errors = validate_event({"ts": 1.0, "event": "span"})
        assert {"name", "span_id", "start_s", "dur_s"} == {
            e.split()[-1].strip("'") for e in errors
        }

    def test_every_declared_type_is_accepted(self):
        for event in EVENT_TYPES:
            record = {"ts": 0.0, "event": event}
            if event == "span":
                record.update(name="s", span_id=1, start_s=0.0, dur_s=0.0)
            assert validate_event(record) == []

    def test_schema_is_exactly_the_emitted_types(self):
        """Every ``.emit("<type>"`` literal in the package is declared,
        and every declared type still has an emitter — an event and its
        emitter are added and removed together."""
        pattern = re.compile(r'\.emit\(\s*"([^"]+)"')
        emitted = {
            match.group(1)
            for path in Path(repro.__file__).parent.rglob("*.py")
            for match in pattern.finditer(path.read_text(encoding="utf-8"))
        }
        assert sorted(emitted - EVENT_TYPES) == []  # emitted, undeclared
        assert sorted(EVENT_TYPES - emitted) == []  # declared, never emitted


class TestLogValidation:
    def test_clean_log_validates(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("campaign.started")
            log.emit("campaign.completed", status=0)
        n_valid, errors = validate_event_log(path)
        assert (n_valid, errors) == (2, [])

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("campaign.started")
        with path.open("a") as handle:
            handle.write('{"ts": 1.0, "event": "run.com')  # killed mid-write
        assert [r["event"] for r in read_events(path)] == ["campaign.started"]
        assert any(
            "_malformed" in record for record in iter_events(path)
        )
        n_valid, errors = validate_event_log(path)
        assert (n_valid, errors) == (1, [])

    def test_mid_file_corruption_is_an_error(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"ts": 1.0, "event": "campaign.started"}\n'
            "garbage\n"
            '{"ts": 2.0, "event": "campaign.completed"}\n'
        )
        n_valid, errors = validate_event_log(path)
        assert n_valid == 2
        assert any("line 2" in e for e in errors)

    def test_schema_violations_carry_line_numbers(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"ts": 1.0, "event": "nope"}\n')
        n_valid, errors = validate_event_log(path)
        assert n_valid == 0
        assert errors and errors[0].startswith("line 1:")
