"""Per-layer metrics of a traced run.

Span names are the program's seam names; a layer's ``self_s`` is the
summed self time of its spans in one traced process, ``calls`` their
count.  Counters come from what the program already exports: the
``telemetry.json`` a campaign writes next to its results and the serve
``metrics`` verb.
"""

from __future__ import annotations

from stats import self_times

#: Every per-layer metric, in ``BENCHMARK.json`` order: (name, unit,
#: better).  A layer that does not run on a workload reports 0.
PER_LAYER = [
    ("startup.import_s", "s", "lower"),
    ("generate.epi.self_s", "s", "lower"),
    ("generate.search.self_s", "s", "lower"),
    ("generate.build.self_s", "s", "lower"),
    ("generate.build.calls", "count", "lower"),
    ("chip.build.self_s", "s", "lower"),
    ("kernel.compile.self_s", "s", "lower"),
    ("run.stimulus.self_s", "s", "lower"),
    ("run.stimulus.calls", "count", "lower"),
    ("run.solve.self_s", "s", "lower"),
    ("run.solve.calls", "count", "lower"),
    ("run.measure.self_s", "s", "lower"),
    ("session.self_s", "s", "lower"),
    ("session.dedup_ratio", "ratio", "higher"),
    ("session.retries", "count", "lower"),
    ("session.failures", "count", "lower"),
    ("cache.lookup.self_s", "s", "lower"),
    ("cache.lookup.calls", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.disk_hits", "count", "higher"),
    ("cache.write.self_s", "s", "lower"),
    ("cache.write.calls", "count", "lower"),
    ("control.self_s", "s", "lower"),
    ("experiment.self_s", "s", "lower"),
    ("export.self_s", "s", "lower"),
    ("export.bytes", "bytes", "lower"),
    ("manifest.self_s", "s", "lower"),
    ("serve.hot.server_ms.p50", "ms", "lower"),
    ("serve.wire_ms.p50", "ms", "lower"),
    ("serve.decode.self_s", "s", "lower"),
    ("serve.hot_ratio", "ratio", "higher"),
    ("serve.exec.server_ms.p50", "ms", "lower"),
    ("serve.exec.solve_ms.p50", "ms", "lower"),
    ("serve.exec.wait_ms.p50", "ms", "lower"),
    ("serve.tier.hot", "count", "higher"),
    ("serve.tier.executed", "count", "higher"),
    ("serve.tier.coalesced", "count", "higher"),
    ("serve.busy", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}

_TIMED = [
    "generate.epi", "generate.search", "generate.build", "chip.build",
    "kernel.compile", "run.stimulus", "run.solve", "run.measure", "session",
    "cache.lookup", "cache.write", "control", "experiment", "export",
    "manifest", "serve.decode",
]
_COUNTED = [
    "generate.build", "run.stimulus", "run.solve", "cache.lookup",
    "cache.write",
]


def span_layers(spans: list[dict]) -> dict[str, float]:
    """``<layer>.self_s`` and ``<layer>.calls`` of one traced process."""
    totals = {f"{layer}.self_s": 0.0 for layer in _TIMED}
    totals.update({f"{layer}.calls": 0 for layer in _COUNTED})
    for span, own in zip(spans, self_times(spans)):
        key = f"{span['name']}.self_s"
        if key in totals:
            totals[key] += own
        key = f"{span['name']}.calls"
        if key in totals:
            totals[key] += 1
    return totals


def engine_counters(counters: dict) -> dict[str, float]:
    """Session and cache ratios from the engine's own counters."""
    # The serve layer looks every request up once before handing the
    # misses to a session, which looks them up again.
    misses = (
        counters.get("engine.cache.misses", 0)
        - counters.get("serve.executed", 0)
        - counters.get("serve.failures", 0)
    )
    hits = counters.get("engine.cache.hits", 0)
    executed = counters.get("engine.runs_executed", 0)
    failures = counters.get("engine.failures", 0)
    return {
        # Cache misses answered by another run of the same batch
        # instead of their own execution.
        "session.dedup_ratio": (
            (misses - executed - failures) / misses if misses else 0.0
        ),
        "session.retries": counters.get("engine.retries", 0),
        "session.failures": failures,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.disk_hits": counters.get("engine.cache.disk_hits", 0),
    }

