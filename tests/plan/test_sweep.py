"""One declaration per experiment: a driver yields its sweeps once,
planning reads that yield without executing anything, and execution
sends the sweeps' values back."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import ExperimentError
from repro.experiments import all_experiments, compile_campaign, registry
from repro.plan import Sweep


def test_compiling_the_registry_never_builds_the_session(tiny_context):
    context = replace(tiny_context, _session=None)
    campaign = compile_campaign(list(all_experiments()), context)
    assert campaign.total_unique > 0
    assert context._session is None


def test_a_driver_that_yields_twice_raises(tiny_context, monkeypatch):
    all_experiments()  # load the real drivers before the registry copy
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    empty = Sweep(mappings=(), tags=(), finish=len)

    @registry.register("yields-twice", "A driver that yields twice")
    def driver(context):
        yield empty
        yield empty

    with pytest.raises(ExperimentError, match="more than once"):
        registry.get_experiment("yields-twice")(tiny_context)
