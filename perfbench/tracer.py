"""Spans around the program's layer boundaries, recorded from outside.

:func:`install` wraps the public functions of each layer at the binding
their callers use (a module attribute or a class attribute) before the
CLI runs.  Spans stay in memory and are written once, at exit.  Span
names follow the program's seam names, so later in-program spans can
be compared name for name.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

#: (module, attribute path, span name).  A cached property is wrapped
#: around its getter, so only the first (computing) access is a span.
LAYERS = [
    ("repro.core.generator", "generate_epi_profile", "generate.epi"),
    ("repro.core.generator", "search_max_power_sequence", "generate.search"),
    ("repro.core.generator", "StressmarkGenerator.build", "generate.build"),
    ("repro.machine.chip", "Chip.__init__", "chip.build"),
    ("repro.machine.chip", "Chip.netlist", "chip.build"),
    ("repro.machine.chip", "Chip.modal", "chip.build"),
    ("repro.machine.chip", "Chip.response_library", "chip.build"),
    ("repro.machine.chip", "Chip.compiled_kernel", "kernel.compile"),
    ("repro.machine.runner", "ChipRunner.build_stimulus", "run.stimulus"),
    ("repro.machine.runner", "ChipRunner.execute", "run.measure"),
    ("repro.pdn.kernels", "CompiledChipKernel.solve_batch", "run.solve"),
    ("repro.pdn.kernels", "CompiledChipKernel.evaluate", "run.solve"),
    ("repro.engine.session", "SimulationSession.run", "session"),
    ("repro.engine.session", "SimulationSession.run_many", "session"),
    ("repro.engine.cache", "ResultCache.get", "cache.lookup"),
    ("repro.engine.cache", "ResultCache.put", "cache.write"),
    ("repro.experiments.ctrl", "gain_sweep", "control"),
    ("repro.experiments.ctrl", "attack_surface", "control"),
    ("repro.experiments.exporter", "export_results", "export"),
    ("repro.engine.campaign", "CampaignManifest.mark_started", "manifest"),
    ("repro.engine.campaign", "CampaignManifest.mark_complete", "manifest"),
    ("repro.engine.campaign", "CampaignManifest.mark_failed", "manifest"),
    ("repro.serve.server", "decode_request", "serve.decode"),
    ("repro.serve.server", "SimulationService.handle", "serve.request"),
    ("repro.serve.server", "SimulationService._process", "serve.batch"),
]


def _request_id(args, kwargs, result):
    return result.get("fingerprint") if isinstance(result, dict) else None


def _batch_id(args, kwargs, result):
    return [item.fingerprint for item in args[1]]


#: Spans whose id comes from their own call: one request (its reply's
#: fingerprint) or one executor batch (the fingerprints it carries,
#: which link executor-thread spans to their requests).
_IDS = {"serve.request": _request_id, "serve.batch": _batch_id}


class Tracer:
    """In-memory span recorder with one span stack per thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, ident=None):
        """*fn* recording one span named *name* per call; *ident* maps
        ``(args, kwargs, result)`` to the span's id."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = {
                "name": name,
                "start": time.monotonic(),
                "end": None,
                "parent": stack[-1] if stack else None,
                "id": None,
                "thread": threading.get_ident(),
            }
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                stack.pop()
                span["end"] = time.monotonic()
                if ident is not None:
                    span["id"] = ident(args, kwargs, result)

        return traced

    def snapshot(self) -> list[dict]:
        """A copy of every span.  A span without an id of its own takes
        its parent's, so all spans of one experiment or request share
        one; a span still open (a request in flight at exit) ends now."""
        now = time.monotonic()
        with self._lock:
            spans = [dict(span) for span in self.spans]
        for span in spans:
            if span["end"] is None:
                span["end"] = now
            if span["id"] is None and span["parent"] is not None:
                span["id"] = spans[span["parent"]]["id"]
        return spans


def _experiment_lookup(tracer: Tracer, get_experiment):
    @functools.wraps(get_experiment)
    def lookup(experiment_id):
        driver = get_experiment(experiment_id)
        return tracer.wrap(
            "experiment", driver, lambda *_: experiment_id
        )

    return lookup


def install() -> Tracer:
    """Wrap every layer in :data:`LAYERS` (and the CLI's experiment
    lookup) and return the recorder."""
    tracer = Tracer()
    for module_name, path, name in LAYERS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        ident = _IDS.get(name)
        current = owner.__dict__[attr] if outer else getattr(owner, attr)
        if isinstance(current, functools.cached_property):
            wrapped = functools.cached_property(
                tracer.wrap(name, current.func, ident)
            )
            wrapped.__set_name__(owner, attr)
        else:
            wrapped = tracer.wrap(name, current, ident)
        setattr(owner, attr, wrapped)
    cli = importlib.import_module("repro.cli")
    cli.get_experiment = _experiment_lookup(tracer, cli.get_experiment)
    return tracer
