"""JSONL event log: incremental, schema-checked run-lifecycle records.

A traced campaign (``repro-noise --trace``) appends one JSON object per
line to ``events.jsonl`` as things happen — never buffered to the end —
so a campaign killed midway still leaves a readable trace up to the
moment it died.  The parent process is the single writer: worker-side
metrics arrive via the telemetry merge (:mod:`repro.obs.metrics`), and
the parent emits the corresponding lifecycle events when each chunk's
outcomes come back.

Event schema (one object per line)::

    {"ts": <epoch seconds>, "event": "<type>", ...fields}

``ts`` and ``event`` are mandatory; ``event`` must be one of
:data:`EVENT_TYPES`.  Per-type conventions (all optional but stable):

* ``run.*`` events carry ``run`` (the run tag, stringified) and
  ``fingerprint`` (the content address); ``run.completed`` /
  ``run.failed`` add ``dur_s``, ``attempts`` and ``worker`` (pid of
  the executing process — the per-worker lanes of the Chrome trace);
  ``run.retried`` adds ``retries``; ``run.failed`` adds ``error``.
* ``experiment.*`` events carry ``experiment``; ``campaign.completed``
  carries the final telemetry ``snapshot`` (merged counters,
  histograms, span summaries).
* ``serve.*`` events come from the simulation service
  (:mod:`repro.serve`): ``serve.request`` carries ``fingerprint``,
  the answering ``tier`` and ``dur_ms``; ``serve.busy`` records a
  backpressure rejection with its ``retry_after_s`` hint;
  ``serve.session_*`` track the stateful control sessions (opened,
  closed, expired) and ``serve.chip_evicted`` a hosted chip leaving
  residency.
* ``fleet.*`` events come from the elastic campaign fleet
  (:mod:`repro.fleet`): worker/dispatcher lifecycle, lease steals and
  poisonings, injected host faults; ``fleet.transition`` records a
  live per-worker state change observed by the dispatcher's in-flight
  aggregator (``worker``, ``from``/``to`` states, ``steals``).
* ``slo.violation`` events come from the SLO layer
  (:mod:`repro.obs.slo`): one per objective breached in one series
  window, carrying ``slo``, ``sli``, ``burn_rate``, ``budget``,
  ``events`` and ``window_s``.
* ``span`` events carry ``name``, ``span_id``, ``parent_id``,
  ``start_s`` and ``dur_s`` — enough to rebuild the span tree and the
  Chrome trace timeline offline.

:func:`validate_event` / :func:`validate_event_log` implement the
schema check the CI trace-smoke job runs.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Iterator

__all__ = [
    "EVENT_TYPES",
    "EventLog",
    "iter_events",
    "read_events",
    "validate_event",
    "validate_event_log",
]

#: Every event type the engine emits.
EVENT_TYPES = frozenset({
    "campaign.started",
    "campaign.completed",
    "experiment.started",
    "experiment.completed",
    "experiment.failed",
    "run.scheduled",
    "run.started",
    "run.retried",
    "run.failed",
    "run.cached",
    "run.completed",
    "point.dropped",
    "serve.started",
    "serve.stopped",
    "serve.request",
    "serve.busy",
    "serve.session_opened",
    "serve.session_closed",
    "serve.session_expired",
    "serve.chip_evicted",
    "fleet.worker.started",
    "fleet.worker.stopped",
    "fleet.stolen",
    "fleet.poisoned",
    "fleet.serve.unavailable",
    "fleet.fault.worker_kill",
    "fleet.fault.lease_corrupt",
    "fleet.fault.heartbeat_stall",
    "fleet.dispatcher.spawned",
    "fleet.dispatcher.started",
    "fleet.dispatcher.crashed",
    "fleet.dispatcher.completed",
    "fleet.transition",
    "slo.violation",
    "span",
})

#: Default event-log filename inside a campaign directory.
EVENTS_NAME = "events.jsonl"


def _jsonable(value):
    """Clamp an event field to JSON-encodable data (tags are often
    tuples; payloads occasionally carry rich objects)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple, set)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return repr(value)


class EventLog:
    """Append-only JSONL sink, flushed per record.

    One :class:`EventLog` is attached to the campaign telemetry
    (:meth:`~repro.obs.metrics.Telemetry.enable_tracing`); everything
    instrumented then reaches it through ``telemetry.emit``.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a", encoding="utf-8")
        # The simulation service emits from request-handler threads and
        # its executor thread at once; serialize so records never tear.
        self._lock = threading.Lock()
        self.emitted = 0

    def emit(self, event: str, **fields) -> None:
        """Append one event record and flush it to disk immediately.

        Thread-safe: one record is written atomically with respect to
        other emitters on this log."""
        record = {"ts": round(time.time(), 6), "event": event}
        for key, value in fields.items():
            record[key] = _jsonable(value)
        line = json.dumps(record, sort_keys=False) + "\n"
        with self._lock:
            if self._handle is None:  # pragma: no cover - emit after close
                return
            self._handle.write(line)
            self._handle.flush()
            self.emitted += 1

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EventLog({self.path}, emitted={self.emitted})"


def iter_events(path: str | Path) -> Iterator[dict]:
    """Yield event records from a JSONL file, skipping blank lines.

    A torn final line (campaign killed mid-write) is yielded as a
    ``{"_malformed": <line>}`` marker instead of raising, so a partial
    trace stays readable — exactly the crash scenario the incremental
    log exists for.
    """
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                yield {"_malformed": line}
                continue
            yield record if isinstance(record, dict) else {"_malformed": line}


def read_events(path: str | Path) -> list[dict]:
    """All well-formed events of a JSONL trace, in file order."""
    return [
        record for record in iter_events(path) if "_malformed" not in record
    ]


def validate_event(record: dict) -> list[str]:
    """Schema errors of one event record (empty list = valid)."""
    errors: list[str] = []
    if not isinstance(record, dict):
        return [f"event must be an object (got {type(record).__name__})"]
    if "_malformed" in record:
        return ["unparseable JSON line"]
    ts = record.get("ts")
    if not isinstance(ts, (int, float)) or isinstance(ts, bool):
        errors.append(f"missing/invalid 'ts' (got {ts!r})")
    event = record.get("event")
    if not isinstance(event, str):
        errors.append(f"missing/invalid 'event' (got {event!r})")
    elif event not in EVENT_TYPES:
        errors.append(f"unknown event type {event!r}")
    if event == "span":
        for field in ("name", "span_id", "start_s", "dur_s"):
            if field not in record:
                errors.append(f"span event missing {field!r}")
    try:
        json.dumps(record)
    except (TypeError, ValueError):
        errors.append("event is not JSON-serializable")
    return errors


def validate_event_log(path: str | Path) -> tuple[int, list[str]]:
    """Validate a whole JSONL trace; returns ``(n_valid, errors)``.

    A single malformed *final* line is tolerated (torn tail of a killed
    campaign); malformed lines elsewhere, or schema violations, are
    reported as errors prefixed with their 1-based line number.
    """
    records = list(iter_events(path))
    errors: list[str] = []
    n_valid = 0
    for lineno, record in enumerate(records, start=1):
        if "_malformed" in record:
            if lineno == len(records):
                continue  # torn tail: expected crash artifact
            errors.append(f"line {lineno}: unparseable JSON")
            continue
        record_errors = validate_event(record)
        if record_errors:
            errors.extend(f"line {lineno}: {e}" for e in record_errors)
        else:
            n_valid += 1
    return n_valid, errors
