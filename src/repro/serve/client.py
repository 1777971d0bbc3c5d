"""A small synchronous client for the simulation service.

Used by ``repro-noise query``, the CI smoke job and the TCP tests.
One client wraps one persistent connection (JSON-lines, many requests
per socket); :meth:`ServeClient.simulate` optionally retries ``busy``
replies after the server's own ``retry_after_s`` hint, which is how a
polite batch caller rides out a backpressure spike without hammering
the admission queue.
"""

from __future__ import annotations

import base64
import socket
import time

from ..errors import ProtocolError
from ..machine.runner import RunOptions
from ..machine.workload import CurrentProgram
from .protocol import encode_program, read_message, write_message

__all__ = ["ServeClient"]


class ServeClient:
    """One persistent connection to a :class:`NoiseServer`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 4650,
        timeout: float | None = 120.0,
    ):
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")

    # -- context manager -------------------------------------------------
    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        for stream in (self._rfile, self._wfile):
            try:
                stream.close()
            except OSError:  # pragma: no cover - teardown best effort
                pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - teardown best effort
            pass

    # -- raw request -----------------------------------------------------
    def request(self, payload: dict) -> dict:
        """One request/reply round trip on this connection."""
        write_message(self._wfile, payload)
        reply = read_message(self._rfile)
        if reply is None:
            raise ProtocolError("server closed the connection mid-request")
        return reply

    # -- verbs -----------------------------------------------------------
    def simulate(
        self,
        mapping,
        options: RunOptions | dict | None = None,
        tag: object = None,
        *,
        chip: str | None = None,
        retry_busy: int = 0,
    ) -> dict:
        """Submit one simulation request.

        ``mapping`` is a sequence of :class:`CurrentProgram` / ``None``
        (or already-encoded program dicts).  ``chip`` selects a hosted
        chip identity on a multi-chip service (spec name, family label
        or fingerprint digest); omitted, the request goes to the
        server's default chip.  ``retry_busy`` re-submits up to that
        many times after a busy reply, sleeping the server's
        ``retry_after_s`` hint between attempts.
        """
        payload: dict = {
            "op": "simulate",
            "mapping": [
                encode_program(entry)
                if isinstance(entry, CurrentProgram) or entry is None
                else entry
                for entry in mapping
            ],
        }
        if chip is not None:
            payload["chip"] = chip
        if options is not None:
            payload["options"] = (
                _encode_options(options)
                if isinstance(options, RunOptions)
                else dict(options)
            )
        if tag is not None:
            payload["tag"] = tag
        attempts = 0
        while True:
            reply = self.request(payload)
            if reply.get("status") != "busy" or attempts >= retry_busy:
                return reply
            attempts += 1
            time.sleep(float(reply.get("retry_after_s") or 0.1))

    def fetch(self, fingerprint: str) -> bytes | None:
        """The raw pickled result payload for an engine cache key, or
        ``None`` on a miss — the fleet-worker verb: a worker probes the
        service's disk tier before executing a claimed run, so a fleet
        and the always-on service share one answer space."""
        reply = self.request({"op": "fetch", "fingerprint": fingerprint})
        if not reply.get("ok"):
            raise ProtocolError(
                f"fetch failed: {reply.get('error', 'unknown error')}"
            )
        payload = reply.get("payload")
        if payload is None:
            return None
        return base64.b64decode(payload)

    # -- stateful control sessions --------------------------------------
    def session_open(
        self,
        mapping,
        controller: dict,
        options: RunOptions | dict | None = None,
        *,
        windows_per_segment: int = 8,
        tag: object = None,
        chip: str | None = None,
        runit: bool = True,
    ) -> dict:
        """Open a stateful closed-loop session on the server.

        ``controller`` is a :func:`~repro.control.controllers.
        controller_from_spec` description (``{"kind": "integral",
        "gain": 0.1, ...}``).  The reply carries the ``session`` id for
        :meth:`session_step` / :meth:`session_close`, the serving chip's
        digest, the controller kind and the window count.
        """
        payload: dict = {
            "op": "session.open",
            "mapping": [
                encode_program(entry)
                if isinstance(entry, CurrentProgram) or entry is None
                else entry
                for entry in mapping
            ],
            "controller": dict(controller),
            "windows_per_segment": windows_per_segment,
            "runit": runit,
        }
        if options is not None:
            payload["options"] = (
                _encode_options(options)
                if isinstance(options, RunOptions)
                else dict(options)
            )
        if tag is not None:
            payload["tag"] = tag
        if chip is not None:
            payload["chip"] = chip
        return self.request(payload)

    def session_step(self, session: str, steps: int | str = 1) -> dict:
        """Advance an open session by *steps* windows (``"all"`` runs
        it to completion); the reply carries the per-window
        observations and, once done, the loop summary."""
        return self.request(
            {"op": "session.step", "session": session, "steps": steps}
        )

    def session_close(self, session: str) -> dict:
        """Close an open session; the reply carries its final loop
        summary and step accounting."""
        return self.request({"op": "session.close", "session": session})

    def health(self) -> dict:
        return self.request({"op": "health"})

    def metrics(self) -> dict:
        return self.request({"op": "metrics"})

    def metrics_text(self) -> str:
        """The Prometheus text exposition of the service's telemetry
        (what the optional plain-HTTP scrape endpoint serves)."""
        reply = self.request({"op": "metrics_text"})
        if not reply.get("ok"):
            raise ProtocolError(
                f"metrics_text failed: {reply.get('error', 'unknown error')}"
            )
        return reply.get("text", "")

    def shutdown(self) -> dict:
        """Ask the server to stop (it replies, then shuts down)."""
        return self.request({"op": "shutdown"})


def _encode_options(options: RunOptions) -> dict:
    """The servable subset of a :class:`RunOptions` as a JSON object."""
    return {
        "segments": options.segments,
        "events_cap": options.events_cap,
        "tail": options.tail,
        "isolated_edge_spacing": options.isolated_edge_spacing,
        "base_samples": options.base_samples,
        "seed": options.seed,
        "include_ssn": options.include_ssn,
        "nest_currents": dict(options.nest_currents),
        "vrm_response": options.vrm_response,
    }
