"""Every registered experiment runs exactly the runs its plan declares.

``plan``'s counts and the fleet's leases both rest on this for the
whole registry: on a cold private cache, running every experiment
executes the campaign plan's unique runs — no more, no fewer — and
leaves every planned fingerprint in the cache.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.chips import build_chip, get_family
from repro.engine import ResultCache, SimulationSession
from repro.experiments import (
    all_experiments,
    compile_campaign,
    get_experiment,
    quick_context,
)
from repro.obs import Telemetry

#: The quick-tier ``plan all`` fingerprint (``repro-noise --quick plan
#: all``) — a cross-PR regression constant.  If this assertion ever
#: fails, the change altered the fingerprint of some run of the quick
#: campaign (a program's canonical text, the run options, a driver's
#: declared runs), and every cache entry and campaign manifest written
#: before it is orphaned.  Do not update the constant without that
#: intent.
QUICK_PLAN_ALL_FP = (
    "bed42b5fbef67bdcbd29f39b27af48b66fccedee9f110a79b965c48946153fd2"
)


def test_quick_plan_all_fingerprint_is_pinned():
    campaign = compile_campaign(list(all_experiments()), quick_context())
    assert campaign.total_unique == 175
    assert campaign.fingerprint() == QUICK_PLAN_ALL_FP


@pytest.mark.parametrize(
    "member", [None, "cores4"], ids=["reference", "quick-cores4"]
)
def test_every_experiment_runs_exactly_its_plan(tiny_context, member):
    spec = None if member is None else get_family("quick").member(member)
    chip = tiny_context.chip if spec is None else build_chip(spec)
    telemetry = Telemetry()
    cache = ResultCache(telemetry=telemetry)
    session = SimulationSession(
        chip, tiny_context.options, cache=cache, jobs=1, telemetry=telemetry
    )
    context = replace(tiny_context, chip=chip, spec=spec, _session=session)
    experiments = list(all_experiments())
    campaign = compile_campaign(experiments, context)

    for experiment_id in experiments:
        get_experiment(experiment_id)(context)

    assert telemetry.counter("engine.runs_executed") == campaign.total_unique
    assert [fp for fp in campaign.unique if fp not in cache] == []
