"""``repro.fleet`` — elastic, crash-tolerant multi-worker campaigns.

The fleet is the one way a compiled campaign plan (:mod:`repro.plan`)
fans out across processes or hosts; within one process, ``--jobs``
fans a session's cache misses over a pool.  No worker owns a fixed
slice of the campaign — work moves by **leases**: every worker pulls
unfinished runs in small batches from one shared
:class:`~repro.engine.campaign.CampaignManifest` (the claim table),
heartbeats to keep its leases alive, and executes claim → execute →
checkpoint → renew until the campaign is exhausted.  A worker that
dies — or wedges long enough for its lease to expire — has its runs
*stolen* by survivors, and a run that keeps killing workers is benched
(poisoned) instead of wedging the fleet.

Determinism makes stealing safe: results are content-addressed, so a
stolen run raced by a not-quite-dead original worker produces the
*same* bytes on both sides and the cache publish is atomic — the
fleet's exports are byte-identical to a serial fault-free execution,
which is the chaos acceptance test in CI.

* :class:`FleetWorker` — the claim/execute/renew loop (one process,
  serial sessions).
* :class:`FleetDispatcher` — spawns and monitors N workers (local
  subprocesses, or remote via an ssh or Slurm command template),
  respawns crashed ones within a budget, and folds the per-worker caches and
  manifests into the campaign result with
  :func:`~repro.engine.cache.merge_cache_dirs` /
  :meth:`~repro.engine.campaign.CampaignManifest.merge_from`.

Chaos is injected through :mod:`repro.faults` host-level kinds
(``kill=…,stall=…,lease_corrupt=…`` in ``$REPRO_FAULTS``), seeded and
content-keyed like every other fault in this tree.

* :class:`FleetLiveAggregator` — the live status plane: folds the
  workers' periodic ``live-telemetry.json`` sidecars and the shared
  lease table into ``live-status.json`` *during* the campaign
  (state transitions, observed steals, live completion rate — what
  ``repro-noise top --campaign`` renders).
"""

from .dispatcher import FleetDispatcher
from .live import (
    LIVE_SIDECAR_NAME,
    LIVE_STATUS_NAME,
    FleetLiveAggregator,
    load_live_status,
)
from .worker import KILL_EXIT_STATUS, FleetWorker

__all__ = [
    "FleetDispatcher",
    "FleetWorker",
    "FleetLiveAggregator",
    "KILL_EXIT_STATUS",
    "LIVE_SIDECAR_NAME",
    "LIVE_STATUS_NAME",
    "load_live_status",
]
