"""The always-on simulation service: three tiers, one warm engine.

``repro-noise serve`` keeps a chip (modal decomposition + response
library) and a :class:`~repro.engine.session.SimulationSession` pool
warm in one long-running process, and answers simulation requests over
a threaded TCP/JSON-lines endpoint.  A request travels::

    handler thread                        executor thread
    --------------                        ---------------
    decode + fingerprint
    [1] hot tier (HotCache) ── hit ─▶ reply "hot" (lock + dict lookup)
    [2] single-flight join ── follower ─▶ wait, reply "coalesced"
    [3] admission queue ── full ─▶ reply "busy" (+retry_after_s)
            │ leader
            ▼
        bounded queue ────────────▶ [4] ResultCache (memory+disk)
                                        ── hit ─▶ reply "cache"
                                    [5] SimulationSession.run_many
                                        (batched misses, warm pool,
                                         retry/degradation semantics)
                                        ─▶ reply "executed"

Every tier transition is accounted in :mod:`repro.obs` (``serve.*``
counters, a request-latency histogram, ``serve.request`` events and
``serve.batch`` spans under ``--trace``), so the running service
answers its own ``metrics`` verb with the same telemetry shape the
batch CLI exports.

Threading contract: request handler threads touch only thread-safe
state (the hot tier, the single-flight registry, the admission queue,
lock-guarded counters).  The engine — sessions, the result cache, the
process pool — is owned by the single executor thread, which also
gives the service its graceful-degradation story for free: a worker
process dying mid-request is absorbed by the session's retry/degrade
path, and a run that still fails permanently becomes a structured
``error`` reply for exactly the requests riding on it, never a dead
server.
"""

from __future__ import annotations

import base64
import queue
import socketserver
import threading
import time

from typing import Sequence

from ..chips import ChipSpec
from ..control.controllers import controller_from_spec
from ..control.loop import ClosedLoopRun
from ..control.study import CONTROL_RUN_TAG
from ..engine.cache import ResultCache, global_cache
from ..engine.executor import Executor, make_executor
from ..engine.fingerprint import canonical, content_key
from ..engine.resilience import RetryPolicy, RunFailure
from ..engine.session import SimulationSession
from ..engine.stepping import SteppingSession
from ..errors import ConfigError, ControlError, ProtocolError
from ..machine.chip import Chip
from ..machine.runner import RunOptions
from ..measure.runit import RUnit, RUnitConfig
from ..obs import Telemetry, get_telemetry, prometheus_text
from ..obs.series import SERIES_CAPACITY, TelemetrySeries, series_state
from ..obs.slo import SloPolicy, default_serve_slos
from ..plan.spec import chip_identity
from .coalesce import Flight, SingleFlight
from .hot_cache import HotCache
from .protocol import (
    CONTROL_OPS,
    OPS,
    decode_request,
    encode_observation,
    encode_result,
    read_message,
    write_message,
)
from .roster import ChipRoster
from .sessions import ControlSessionRegistry

__all__ = ["SimulationService", "NoiseServer", "start_server"]

#: Default TCP port (none of the IANA well-knowns; "VN" on a phone pad).
DEFAULT_PORT = 4650

_UNSET = object()
_STOP = object()


class _WorkItem:
    """One admitted leader request, queued for the executor thread."""

    __slots__ = ("fingerprint", "request", "flight", "entry", "admitted_s")

    def __init__(self, fingerprint, request, flight, entry):
        self.fingerprint = fingerprint
        self.request = request
        self.flight = flight
        self.entry = entry
        self.admitted_s = time.perf_counter()


class _ControlWork:
    """One ``session.*`` request, queued for the executor thread.

    Control verbs never coalesce (each is a state transition of one
    named session, not an idempotent lookup), so the item carries its
    own event/reply pair instead of riding a flight.
    """

    __slots__ = ("payload", "event", "reply", "admitted_s")

    def __init__(self, payload: dict):
        self.payload = payload
        self.event = threading.Event()
        self.reply: dict | None = None
        self.admitted_s = time.perf_counter()

    def settle(self, reply: dict) -> None:
        self.reply = reply
        self.event.set()


class SimulationService:
    """Tiered request answering over one warm chip.

    Parameters
    ----------
    chip:
        The chip every request of this service simulates on (its
        identity is part of every fingerprint).
    default_options:
        Options applied when a request omits them (the serving
        equivalent of the batch CLI's context options).
    cache:
        Engine result cache (tier 2); the process-global cache when
        omitted, so ``--cache-dir`` wires the disk tier in exactly as
        for batch runs.
    executor / jobs:
        The warm fan-out backend shared by every session (tier 3).
    retry:
        Per-run fault-isolation policy (environment default when
        omitted).
    queue_limit:
        Bound of the admission queue.  A leader that cannot be
        admitted — and every follower riding its flight — gets a
        ``busy`` reply with a ``retry_after_s`` hint instead of
        unbounded queueing: load sheds at the edge, not in the engine.
    hot_entries:
        Bound of the hot tier.
    max_batch:
        How many queued requests the executor thread drains into one
        ``run_many`` call (distinct fingerprints in one batch fan out
        across the worker pool together).
    max_wait_s:
        Hard ceiling a handler waits on a flight before replying with
        an error (defends clients against a wedged engine).
    window_s:
        Period of the live metrics ticker: every ``window_s`` the
        service snapshots its telemetry into the windowed series
        (rates, rolling percentiles) and evaluates the SLO policy
        against the fresh window.  ``0`` disables the ticker (tests
        drive :meth:`tick_metrics` directly).
    slo:
        The :class:`~repro.obs.slo.SloPolicy` the ticker evaluates
        (:func:`~repro.obs.slo.default_serve_slos` when omitted).
    chips:
        Extra :class:`~repro.chips.ChipSpec` identities to host next to
        the default chip (e.g. a chip family behind one endpoint).  A
        request selects one with its ``chip`` field (spec name, label
        or fingerprint digest); requests without the field go to the
        default chip, byte-identically to a single-chip service.
        Hosted chips fingerprint immediately but build lazily — the
        heavy solver artifacts are only paid when a request misses
        into the execution tier.
    max_resident_chips:
        How many non-default chips may stay built at once; building
        one more evicts the least-recently-used cold chip (and its
        warm sessions — its hot tier survives).
    chip_hot_entries:
        Hot-tier bound of each extra hosted chip (the default chip
        keeps ``hot_entries``).
    max_sessions:
        How many stateful control sessions (``session.open``) may stay
        open at once.  Each pins a solved stimulus in memory, so this
        is the residency budget of the control plane the way
        ``max_resident_chips`` budgets the simulate plane.
    session_ttl_s:
        Idle lifetime of an open control session; sessions idle past
        it are pruned (accounted as ``serve.session.expired``) on the
        next control request.
    """

    def __init__(
        self,
        chip: Chip,
        default_options: RunOptions | None = None,
        *,
        cache: ResultCache | None = None,
        executor: Executor | None = None,
        jobs: int | None = None,
        retry: RetryPolicy | None = None,
        faults: object = _UNSET,
        queue_limit: int = 32,
        hot_entries: int = 256,
        max_batch: int = 8,
        max_wait_s: float = 600.0,
        telemetry: Telemetry | None = None,
        window_s: float = 5.0,
        slo: SloPolicy | None = None,
        chips: Sequence[ChipSpec] = (),
        max_resident_chips: int = 2,
        chip_hot_entries: int = 64,
        max_sessions: int = 8,
        session_ttl_s: float = 900.0,
    ):
        if queue_limit < 1:
            raise ConfigError(f"queue_limit must be >= 1 (got {queue_limit})")
        if max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1 (got {max_batch})")
        if window_s < 0:
            raise ConfigError(f"window_s must be >= 0 (got {window_s})")
        self.chip = chip
        # Digest of the canonical chip identity: what health replies,
        # events and banners show (the raw identity string is long).
        self.chip_fp = content_key(chip_identity(chip.config, chip.chip_id))
        self.default_options = default_options or RunOptions()
        self.cache = cache if cache is not None else global_cache()
        if executor is None:
            executor = make_executor(jobs)
        self.executor = executor
        self.retry = retry or RetryPolicy.from_env()
        self._faults = faults
        self.hot = HotCache(hot_entries)
        # Multi-chip roster: the default chip is entry 0 (pinned, its
        # hot tier *is* self.hot); extra specs host lazily.
        self.roster = ChipRoster(
            chip,
            self.hot,
            chips,
            max_resident=max_resident_chips,
            hot_entries=chip_hot_entries,
        )
        self.flights = SingleFlight()
        # Stateful control sessions (the ``session.*`` verb family).
        self.control = ControlSessionRegistry(
            max_sessions=max_sessions, ttl_s=session_ttl_s
        )
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.telemetry = telemetry or get_telemetry()
        self._queue: queue.Queue = queue.Queue(maxsize=queue_limit)
        # Warm sessions, keyed (chip digest, canonical options).
        self._sessions: dict[tuple[str, str], SimulationSession] = {}
        self._metrics_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._closing = False
        self._started_s = time.time()
        # Live metrics plane: windowed series + SLO policy, driven by
        # the ticker thread (or tick_metrics() directly in tests).
        self.window_s = float(window_s)
        self.series = TelemetrySeries(capacity=SERIES_CAPACITY)
        self.slo_policy = slo if slo is not None else default_serve_slos()
        self._slo_status: list = []
        self._ticker: threading.Thread | None = None
        self._ticker_stop = threading.Event()

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "SimulationService":
        """Start the executor thread (idempotent), pre-compiling the
        default chip's kernel so the first cold request pays a solve,
        not a kernel build (a chip that does not compile refuses to
        start with the kernel's :class:`~repro.errors.SolverError`)."""
        with self.telemetry.time("engine.kernel.compile_seconds"):
            self.chip.compiled_kernel
        if self._thread is None or not self._thread.is_alive():
            self._closing = False
            self._thread = threading.Thread(
                target=self._drain, name="repro-serve-exec", daemon=True
            )
            self._thread.start()
        if self.window_s > 0 and (
            self._ticker is None or not self._ticker.is_alive()
        ):
            self._ticker_stop.clear()
            # A series' first tick only records its baseline: take it
            # as the ticker starts, so the first window counts what the
            # service does from here on.
            self.tick_metrics()
            self._ticker = threading.Thread(
                target=self._tick_loop, name="repro-serve-ticker", daemon=True
            )
            self._ticker.start()
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Stop accepting work, drain the queue, join the executor."""
        self._ticker_stop.set()
        if self._ticker is not None:
            self._ticker.join(min(timeout, 2.0))
            self._ticker = None
        if self._thread is None:
            return
        self._closing = True
        self._queue.put(_STOP)
        self._thread.join(timeout)
        self._thread = None
        self.telemetry.emit("serve.stopped", uptime_s=self.uptime_s)

    @property
    def uptime_s(self) -> float:
        return time.time() - self._started_s

    # -- request entry point --------------------------------------------
    def handle(self, payload: dict) -> dict:
        """Answer one decoded JSON request (the TCP handler and the
        in-process tests both enter here)."""
        op = payload.get("op", "simulate")
        if op == "fetch":
            return self._fetch(payload)
        if op == "health":
            return self.health()
        if op == "metrics":
            return self.metrics()
        if op == "metrics_text":
            return self.metrics_text()
        if op == "shutdown":
            # The transport layer owns actually stopping the server;
            # an in-process caller just gets the acknowledgement.
            return {"ok": True, "status": "ok", "stopping": True}
        if op in CONTROL_OPS:
            return self._control(payload)
        if op != "simulate":
            self._count("serve.bad_requests")
            return {
                "ok": False,
                "status": "bad-request",
                "error": f"unknown op {op!r}; expected one of {list(OPS)}",
            }
        return self._simulate(payload)

    def _simulate(self, payload: dict) -> dict:
        start = time.perf_counter()
        self._count("serve.requests")
        try:
            entry = self.roster.resolve(payload.get("chip"))
            request = decode_request(
                payload, self.default_options, n_cores=entry.n_cores
            )
        except (ProtocolError, ConfigError) as error:
            self._count("serve.bad_requests")
            return {"ok": False, "status": "bad-request", "error": str(error)}
        # Fingerprint against the chip's *identity* — never its build —
        # so requests for a cold hosted chip stay cheap until one
        # actually misses into the execution tier.
        fingerprint = request.fingerprint_for(entry.identity)

        # Tier 1: hot replay, entirely inside the handler thread.
        hot = entry.hot.get(fingerprint)
        if hot is not None:
            return self._reply(fingerprint, hot, "hot", start)

        if self._closing:
            self._count("serve.busy")
            return self._busy_reply()

        # Tier 2/3 admission: coalesce onto one flight per fingerprint.
        leader, flight = self.flights.join(fingerprint)
        if leader:
            item = _WorkItem(fingerprint, request, flight, entry)
            try:
                self._queue.put_nowait(item)
            except queue.Full:
                self._count("serve.busy")
                flight.reject(self._busy_reply())
                self.flights.finish(flight)
        else:
            self._count("serve.coalesced")

        if not flight.wait(self.max_wait_s):
            self._count("serve.wait_timeouts")
            return {
                "ok": False,
                "status": "error",
                "error": f"timed out after {self.max_wait_s:g}s waiting "
                f"for execution",
                "fingerprint": fingerprint,
            }
        if flight.error is not None:
            return dict(flight.error)
        tier = flight.tier if leader else "coalesced"
        return self._reply(fingerprint, flight.payload, tier, start)

    def _fetch(self, payload: dict) -> dict:
        """Answer a fleet worker's cache probe: the raw disk-tier
        payload for a fingerprint, base64-encoded (pickle bytes are
        not JSON).  Runs entirely in the handler thread —
        :meth:`ResultCache.peek_bytes` is a pure disk read, so this
        never competes with the executor thread for the engine."""
        fingerprint = payload.get("fingerprint")
        if not isinstance(fingerprint, str) or not fingerprint:
            self._count("serve.bad_requests")
            return {
                "ok": False,
                "status": "bad-request",
                "error": "fetch needs a 'fingerprint' string",
            }
        raw = self.cache.peek_bytes(fingerprint)
        if raw is None:
            self._count("serve.fetch_misses")
            return {
                "ok": True,
                "status": "miss",
                "fingerprint": fingerprint,
                "payload": None,
            }
        self._count("serve.fetch_hits")
        return {
            "ok": True,
            "status": "hit",
            "fingerprint": fingerprint,
            "payload": base64.b64encode(raw).decode("ascii"),
        }

    # -- stateful control sessions ---------------------------------------
    def _control(self, payload: dict) -> dict:
        """Handler-thread entry of the ``session.*`` verbs: admit onto
        the (shared, bounded) executor queue and wait — all session
        state, like all engine state, is touched only by the executor
        thread."""
        start = time.perf_counter()
        self._count("serve.requests")
        if self._closing:
            self._count("serve.busy")
            return self._busy_reply()
        work = _ControlWork(payload)
        try:
            self._queue.put_nowait(work)
        except queue.Full:
            self._count("serve.busy")
            return self._busy_reply()
        if not work.event.wait(self.max_wait_s):
            self._count("serve.wait_timeouts")
            return {
                "ok": False,
                "status": "error",
                "error": f"timed out after {self.max_wait_s:g}s waiting "
                f"for the control executor",
            }
        elapsed = time.perf_counter() - start
        with self._metrics_lock:
            self.telemetry.observe("serve.request.seconds", elapsed)
            self.telemetry.observe("serve.session.seconds", elapsed)
        return dict(work.reply or {})

    def _run_control(self, work: _ControlWork) -> None:
        """Executor-thread side of one control verb."""
        op = work.payload.get("op")
        try:
            with self.telemetry.span("serve.control", op=op):
                reply = self._control_dispatch(op, work.payload)
        except (ProtocolError, ConfigError, ControlError) as error:
            self._count("serve.bad_requests")
            reply = {
                "ok": False, "status": "bad-request", "error": str(error),
            }
        except BaseException as error:  # noqa: BLE001 - keep serving
            self._count("serve.control_errors")
            reply = {
                "ok": False,
                "status": "error",
                "error": f"{type(error).__name__}: {error}",
            }
        work.settle(reply)

    def _control_dispatch(self, op: str, payload: dict) -> dict:
        for expired in self.control.prune():
            self._count("serve.session.expired")
            self.telemetry.emit(
                "serve.session_expired",
                session=expired.session_id,
                steps=expired.steps_served,
            )
        if op == "session.open":
            return self._session_open(payload)
        if op == "session.step":
            return self._session_step(payload)
        return self._session_close(payload)

    def _session_open(self, payload: dict) -> dict:
        if self.control.full:
            self._count("serve.busy")
            reply = self._busy_reply()
            reply["error"] = (
                f"control session capacity reached "
                f"({self.control.max_sessions} open)"
            )
            return reply
        entry = self.roster.resolve(payload.get("chip"))
        request = decode_request(
            payload, self.default_options, n_cores=entry.n_cores
        )
        windows = payload.get("windows_per_segment", 8)
        if (
            isinstance(windows, bool)
            or not isinstance(windows, int)
            or windows < 1
        ):
            raise ProtocolError(
                "windows_per_segment must be a positive integer"
            )
        # Default the run tag to the control studies' tag, so a serve
        # session's baseline fingerprint matches the CLI/plan paths.
        tag = payload.get("tag") or CONTROL_RUN_TAG
        chip = self.roster.resident_chip(entry)
        controller = controller_from_spec(payload.get("controller"), chip)
        stepping = SteppingSession(
            chip,
            list(request.mapping),
            request.options,
            run_tag=tag,
            windows_per_segment=windows,
            telemetry=self.telemetry,
        )
        runit = (
            RUnit(RUnitConfig(), chip.vnom)
            if payload.get("runit", True)
            else None
        )
        loop = ClosedLoopRun(
            stepping, controller, runit=runit, telemetry=self.telemetry
        )
        session = self.control.open(loop, entry.digest, controller.kind)
        self._count("serve.session.opened")
        self.telemetry.emit(
            "serve.session_opened",
            session=session.session_id,
            chip=entry.digest[:12],
            controller=controller.kind,
            windows=stepping.n_windows,
        )
        return {
            "ok": True,
            "status": "ok",
            "session": session.session_id,
            "chip": entry.digest,
            "controller": controller.kind,
            "windows": stepping.n_windows,
        }

    def _session_step(self, payload: dict) -> dict:
        session = self.control.get(payload.get("session"))
        steps = payload.get("steps", 1)
        if steps == "all":
            budget = None
        elif (
            not isinstance(steps, bool)
            and isinstance(steps, int)
            and steps >= 1
        ):
            budget = steps
        else:
            raise ProtocolError("steps must be a positive integer or 'all'")
        loop = session.loop
        observations = []
        while not loop.session.done and (
            budget is None or len(observations) < budget
        ):
            observations.append(loop.step())
        self.control.record_steps(session, len(observations))
        self._count("serve.session.steps", len(observations))
        reply = {
            "ok": True,
            "status": "ok",
            "session": session.session_id,
            "observations": [
                encode_observation(obs) for obs in observations
            ],
            "position": loop.session.position,
            "windows": loop.session.n_windows,
            "done": loop.session.done,
        }
        if loop.session.done:
            reply["summary"] = loop.summary()
        return reply

    def _session_close(self, payload: dict) -> dict:
        session = self.control.close(payload.get("session"))
        self._count("serve.session.closed")
        self.telemetry.emit(
            "serve.session_closed",
            session=session.session_id,
            steps=session.steps_served,
            done=session.loop.session.done,
        )
        return {
            "ok": True,
            "status": "ok",
            "session": session.session_id,
            "steps_served": session.steps_served,
            "done": session.loop.session.done,
            "summary": session.loop.summary(),
        }

    # -- verbs ----------------------------------------------------------
    def health(self) -> dict:
        """Liveness + occupancy (the ``/healthz`` of this protocol)."""
        return {
            "ok": True,
            "status": "closing" if self._closing else "ok",
            "uptime_s": round(self.uptime_s, 3),
            "chip": self.chip_fp,
            "queue_depth": self._queue.qsize(),
            "queue_limit": self._queue.maxsize,
            "in_flight": self.flights.in_flight(),
            "hot": self.hot.stats(),
            "sessions": len(self._sessions),
            "executor": getattr(self.executor, "name", "custom"),
            "chips": self.roster.stats(),
            "control_sessions": self.control.stats(),
        }

    def metrics(self) -> dict:
        """The telemetry snapshot (serve.* + engine.*) plus tier stats,
        request-latency percentiles and the latest SLO evaluation (the
        ``/metrics`` of this protocol)."""
        return {
            "ok": True,
            "status": "ok",
            "uptime_s": round(self.uptime_s, 3),
            "hot": self.hot.stats(),
            "metrics": self._safe_snapshot(),
            "percentiles": self.request_percentiles(),
            "slo": [status.to_dict() for status in self._slo_status],
            "window_s": self.window_s,
            "windows": len(self.series),
            "chips": self.roster.stats(),
            "control_sessions": self.control.stats(),
        }

    def metrics_text(self) -> dict:
        """The same telemetry as Prometheus text exposition — the
        ``metrics_text`` verb and the body of the optional plain-HTTP
        ``GET /metrics`` scrape endpoint."""
        try:
            text = prometheus_text(
                self._safe_snapshot(),
                labels={"chip": self.chip_fp[:12]},
                gauges=self.gauges(),
            )
        except ValueError as error:  # pragma: no cover - defensive
            return {"ok": False, "status": "error", "error": str(error)}
        return {"ok": True, "status": "ok", "text": text}

    def request_percentiles(self) -> dict:
        """Cumulative p50/p95/p99 of the overall and per-tier request
        latency histograms (only the ones that recorded anything)."""
        out: dict = {}
        names = ["serve.request.seconds"] + [
            f"serve.request.{tier}.seconds"
            for tier in ("hot", "cache", "coalesced", "executed")
        ]
        for name in names:
            histogram = self.telemetry.histogram(name)
            if histogram is None or not histogram.count:
                continue
            summary = histogram.summary()
            summary.pop("buckets", None)
            out[name] = summary
        return out

    def gauges(self) -> dict:
        """Instantaneous operational gauges for the exposition: queue
        occupancy, hot-tier occupancy and hit ratio, live qps and
        windowed p95 (from the series), SLO burn rates."""
        hot = self.hot.stats()
        counters = self.telemetry.counters
        answered = sum(
            counters.get(f"serve.tier.{tier}", 0)
            for tier in ("hot", "cache", "coalesced", "executed")
        )
        served_without_engine = sum(
            counters.get(f"serve.tier.{tier}", 0)
            for tier in ("hot", "cache", "coalesced")
        )
        gauges = {
            "serve.uptime.seconds": round(self.uptime_s, 3),
            "serve.queue.depth": self._queue.qsize(),
            "serve.queue.limit": self._queue.maxsize,
            "serve.in.flight": self.flights.in_flight(),
            "serve.hot.entries": hot["entries"],
            "serve.hot.capacity": hot["capacity"],
            "serve.sessions.warm": len(self._sessions),
            "serve.chips.hosted": len(self.roster),
            "serve.chips.resident": self.roster.stats()["resident"],
            "serve.window.seconds": self.window_s,
            "serve.tier.hit.ratio": (
                round(served_without_engine / answered, 6) if answered else 0.0
            ),
            # Smoothed over the last 3 windows so a scrape between
            # bursts does not read 0.
            "serve.qps": round(self.series.rate("serve.requests", k=3), 6),
        }
        control = self.control.stats()
        gauges["serve.control.sessions.open"] = control["open"]
        gauges["serve.control.sessions.capacity"] = control["capacity"]
        gauges["serve.control.steps.served"] = control["steps_served"]
        p95 = self.series.percentile("serve.request.seconds", 95, k=3)
        if p95 is not None:
            gauges["serve.request.p95.seconds"] = round(p95, 6)
        for status in list(self._slo_status):
            slug = status.slo.name.replace("-", "_")
            gauges[f"serve.slo.{slug}.burn.rate"] = round(status.burn_rate, 4)
            gauges[f"serve.slo.{slug}.sli"] = round(status.sli, 6)
        return gauges

    # -- live metrics ticker ---------------------------------------------
    def tick_metrics(self, now: float | None = None):
        """One live-metrics step: snapshot → window delta → SLO
        evaluation.  The ticker thread calls this every ``window_s``;
        tests call it directly with pinned timestamps."""
        state = self._safe_series_state()
        window = self.series.tick_state(state, now)
        if window is not None:
            self._slo_status = self.slo_policy.evaluate_and_emit(
                window, self.telemetry
            )
        return window

    def _tick_loop(self) -> None:
        while not self._ticker_stop.wait(self.window_s):
            try:
                self.tick_metrics()
            except Exception:  # noqa: BLE001 - keep ticking
                self._count("serve.tick_errors")

    def _safe_series_state(self) -> dict:
        for _ in range(8):
            try:
                return series_state(self.telemetry)
            except RuntimeError:
                continue
        return {"counters": {}, "timers": {}, "histograms": {}}  # pragma: no cover

    def _safe_snapshot(self) -> dict:
        # The executor thread mutates counters while we copy them; a
        # dict that changes size mid-copy raises — retry, it settles.
        for _ in range(8):
            try:
                return self.telemetry.snapshot()
            except RuntimeError:
                continue
        return {"counters": {}}  # pragma: no cover - pathological churn

    # -- executor thread -------------------------------------------------
    def _drain(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                break
            # Simulate leaders batch into one run_many; control verbs
            # (session.open/step/close) are state transitions of named
            # sessions and run one at a time, after the batch, still on
            # this one thread — the engine-ownership contract.
            batch: list[_WorkItem] = []
            controls: list[_ControlWork] = []
            (controls if isinstance(item, _ControlWork) else batch).append(
                item
            )
            while len(batch) + len(controls) < self.max_batch:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is _STOP:
                    self._queue.put(_STOP)  # re-arm for the outer loop
                    break
                (
                    controls if isinstance(extra, _ControlWork) else batch
                ).append(extra)
            if batch:
                try:
                    self._process(batch)
                except BaseException as error:  # noqa: BLE001 - keep serving
                    for entry in batch:
                        if not entry.flight.done:
                            entry.flight.reject({
                                "ok": False,
                                "status": "error",
                                "error": f"{type(error).__name__}: {error}",
                                "fingerprint": entry.fingerprint,
                            })
                            self.flights.finish(entry.flight)
                    self._count("serve.batch_errors")
            for work in controls:
                self._run_control(work)

    def _process(self, batch: list[_WorkItem]) -> None:
        with self.telemetry.span("serve.batch", requests=len(batch)):
            # Tier 2: the engine result cache (memory LRU + disk).
            misses: list[_WorkItem] = []
            for item in batch:
                cached = self.cache.get(item.fingerprint)
                if cached is not None:
                    self._settle(item, encode_result(cached), "cache")
                else:
                    misses.append(item)
            if not misses:
                return
            # Tier 3: execute, batched per (chip, options set) so
            # distinct concurrent requests fan out over the warm pool
            # together — one warm session per chip identity and
            # options, exactly the grouping the plan executor uses.
            groups: dict[tuple[str, str], list[_WorkItem]] = {}
            for item in misses:
                key = (item.entry.digest, canonical(item.request.options))
                groups.setdefault(key, []).append(item)
            for key, items in groups.items():
                self._execute_group(self._session_for(key, items[0]), items)

    def _execute_group(
        self, session: SimulationSession, items: list[_WorkItem]
    ) -> None:
        results = session.run_many(
            [list(item.request.mapping) for item in items],
            [item.request.tag for item in items],
        )
        for item, result in zip(items, results):
            if isinstance(result, RunFailure):
                self._count("serve.failures")
                flight = item.flight
                flight.reject({
                    "ok": False,
                    "status": "error",
                    "error": result.describe(),
                    "fingerprint": item.fingerprint,
                })
                self.flights.finish(flight)
                self.telemetry.emit(
                    "serve.request",
                    fingerprint=item.fingerprint,
                    tier="error",
                    error=result.describe(),
                )
            else:
                self._count("serve.executed")
                self._settle(item, encode_result(result), "executed")

    def _session_for(
        self, key: tuple[str, str], item: _WorkItem
    ) -> SimulationSession:
        """The warm session for one (chip, canonical options) pair
        (created on first use, then reused until the chip is evicted).

        Runs on the executor thread: a cold hosted chip is built here
        (the lazy-build cost lands on the first execution-tier miss),
        and any chips the build evicted lose their warm sessions."""
        session = self._sessions.get(key)
        if session is None:
            chip = self.roster.resident_chip(item.entry)
            for digest in self.roster.take_evicted():
                self._sessions = {
                    k: s for k, s in self._sessions.items()
                    if k[0] != digest
                }
                self._count("serve.chip_evictions")
                self.telemetry.emit(
                    "serve.chip_evicted", chip=digest,
                    resident=self.roster.stats()["resident"],
                )
            kwargs = {}
            if self._faults is not _UNSET:
                kwargs["faults"] = self._faults
            session = SimulationSession(
                chip,
                item.request.options,
                cache=self.cache,
                executor=self.executor,
                retry=self.retry,
                on_failure="collect",
                telemetry=self.telemetry,
                **kwargs,
            )
            self._sessions[key] = session
            self._count("serve.sessions_built")
        else:
            # Keep the roster's LRU clock honest for resident chips.
            self.roster.resident_chip(item.entry)
        return session

    def _settle(self, item: _WorkItem, payload: dict, tier: str) -> None:
        """Publish a finished computation: hot tier first, then the
        flight, then retire it — so there is no instant where a repeat
        request finds neither a hot entry nor an in-flight future."""
        item.entry.hot.put(item.fingerprint, payload)
        item.flight.resolve(payload, tier)
        self.flights.finish(item.flight)

    # -- accounting ------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        with self._metrics_lock:
            self.telemetry.increment(name, amount)

    def _reply(
        self, fingerprint: str, payload: dict, tier: str, start: float
    ) -> dict:
        elapsed_ms = (time.perf_counter() - start) * 1e3
        with self._metrics_lock:
            self.telemetry.increment(f"serve.tier.{tier}")
            self.telemetry.observe("serve.request.seconds", elapsed_ms / 1e3)
            # Per-tier latency distribution: what the tier SLOs and the
            # BENCH_serve hot/warm/cold percentiles are built from.
            self.telemetry.observe(
                f"serve.request.{tier}.seconds", elapsed_ms / 1e3
            )
        self.telemetry.emit(
            "serve.request",
            fingerprint=fingerprint,
            tier=tier,
            dur_ms=round(elapsed_ms, 3),
        )
        return {
            "ok": True,
            "tier": tier,
            "fingerprint": fingerprint,
            "elapsed_ms": round(elapsed_ms, 3),
            "result": payload,
        }

    def _busy_reply(self) -> dict:
        retry_after = self._retry_after_s()
        self.telemetry.emit("serve.busy", retry_after_s=retry_after)
        return {
            "ok": False,
            "status": "busy",
            "error": "admission queue is full",
            "retry_after_s": retry_after,
        }

    def _retry_after_s(self) -> float:
        """Backpressure hint: roughly how long the current queue takes
        to drain, from the measured per-run latency."""
        histogram = self.telemetry.histogram("engine.run.seconds")
        mean = histogram.mean if histogram is not None else None
        per_run = mean if mean else 0.25
        estimate = max(1, self._queue.qsize()) * per_run
        return round(min(max(estimate, 0.1), 30.0), 3)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SimulationService(chip={self.chip_fp[:12]}…, "
            f"queue={self._queue.qsize()}/{self._queue.maxsize})"
        )


# -- TCP transport --------------------------------------------------------


class _RequestHandler(socketserver.StreamRequestHandler):
    """One persistent JSON-lines connection (many requests per
    socket); the service logic lives entirely in the handler's
    :class:`SimulationService`."""

    def handle(self) -> None:  # pragma: no cover - exercised via TCP tests
        service: SimulationService = self.server.service  # type: ignore[attr-defined]
        while True:
            try:
                payload = read_message(self.rfile)
            except ProtocolError as error:
                write_message(
                    self.wfile,
                    {"ok": False, "status": "bad-request",
                     "error": str(error)},
                )
                continue
            if payload is None:
                return
            if payload.get("op") == "shutdown":
                write_message(
                    self.wfile, {"ok": True, "status": "ok", "stopping": True}
                )
                self.server.initiate_shutdown()  # type: ignore[attr-defined]
                return
            try:
                response = service.handle(payload)
            except BrokenPipeError:  # client went away mid-wait
                return
            try:
                write_message(self.wfile, response)
            except (BrokenPipeError, ConnectionResetError):
                return


class NoiseServer(socketserver.ThreadingTCPServer):
    """Threaded TCP front end over one :class:`SimulationService`."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: SimulationService):
        super().__init__(address, _RequestHandler)
        self.service = service

    @property
    def port(self) -> int:
        return self.server_address[1]

    def initiate_shutdown(self) -> None:
        """Stop ``serve_forever`` from inside a handler thread (a
        direct ``shutdown()`` call would deadlock the handler on its
        own serve loop)."""
        threading.Thread(target=self.shutdown, daemon=True).start()


def start_server(
    service: SimulationService, host: str = "127.0.0.1", port: int = 0
) -> tuple[NoiseServer, threading.Thread]:
    """Start *service* behind a TCP endpoint in a background thread;
    returns the bound server (``server.port`` is the actual port when
    0 was requested) and the serving thread."""
    service.start()
    service.telemetry.emit(
        "serve.started", host=host, port=port, chip=service.chip_fp
    )
    server = NoiseServer((host, port), service)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve-tcp", daemon=True
    )
    thread.start()
    return server, thread
