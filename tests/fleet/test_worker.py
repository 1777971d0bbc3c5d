"""The fleet worker loop, in-process: claim → execute → checkpoint →
renew, stealing, chaos hooks, drain, and the serve probe.

These tests run real simulations through :class:`FleetWorker` against
the 6-run tiny campaign; chaos that would kill a real process goes
through the ``exit_fn`` seam so the suite survives its own faults.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.engine import CampaignManifest, ResultCache, SimulationSession
from repro.faults import FaultPlan
from repro.fleet import KILL_EXIT_STATUS, FleetWorker
from repro.obs import Telemetry
from repro.plan import run_point_id


def make_worker(campaign, chip, tmp_path, worker_id="w0", **kwargs):
    telemetry = kwargs.pop("telemetry", None) or Telemetry()
    manifest = kwargs.pop(
        "manifest", None
    ) or CampaignManifest(tmp_path / "campaign-manifest.json")
    kwargs.setdefault(
        "cache",
        ResultCache(cache_dir=tmp_path / worker_id / "cache",
                    telemetry=telemetry),
    )
    kwargs.setdefault("faults", None)
    kwargs.setdefault("batch", 2)
    kwargs.setdefault("lease_s", 30.0)
    return FleetWorker(
        campaign, chip, manifest,
        worker_id=worker_id, telemetry=telemetry, **kwargs,
    )


def points_of(campaign) -> list[str]:
    return [run_point_id(fp) for fp in campaign.unique]


def run_serially(campaign, chip, cache: ResultCache) -> Telemetry:
    """Execute the campaign's runs through one serial session, as a
    driver's sweep does; returns the session's telemetry."""
    entries = list(campaign.unique.values())
    options = entries[0].run.options
    assert all(entry.run.options == options for entry in entries)
    telemetry = Telemetry()
    SimulationSession(
        chip, options, cache=cache, jobs=1, telemetry=telemetry
    ).run_many(
        [list(entry.run.mapping) for entry in entries],
        [entry.run.tag for entry in entries],
    )
    return telemetry


class TestWorkerLoop:
    def test_single_worker_completes_campaign(self, campaign, tiny_context,
                                              tmp_path):
        private = CampaignManifest(tmp_path / "w0-manifest.json")
        worker = make_worker(
            campaign, tiny_context.chip, tmp_path, private_manifest=private
        )
        summary = worker.run()
        assert summary["completed"] == campaign.total_unique
        assert summary["claimed"] == campaign.total_unique
        assert summary["stolen"] == summary["failed"] == 0
        assert worker.manifest.completed >= set(points_of(campaign))
        assert private.completed >= set(points_of(campaign))
        assert worker.manifest.fleet_accounting()["w0"] == {
            "completed": campaign.total_unique, "stolen": 0, "failed": 0,
        }
        assert worker.telemetry.counter("fleet.claims") == campaign.total_unique
        assert worker.telemetry.counter("fleet.completed") == campaign.total_unique

    def test_fleet_results_are_byte_identical_to_serial(self, campaign,
                                                        tiny_context,
                                                        tmp_path):
        """The acceptance property in miniature: a fleet execution's
        cached payloads are byte-for-byte the serial execution's."""
        serial = ResultCache(cache_dir=tmp_path / "serial")
        telemetry = run_serially(campaign, tiny_context.chip, serial)
        assert telemetry.counter("engine.runs_executed") == (
            campaign.total_unique
        )
        worker = make_worker(campaign, tiny_context.chip, tmp_path)
        worker.run()
        for fingerprint in campaign.unique:
            expected = serial.peek_bytes(fingerprint)
            assert expected is not None
            assert worker.cache.peek_bytes(fingerprint) == expected

    def test_survivor_steals_expired_leases(self, campaign, tiny_context,
                                            tmp_path):
        manifest = CampaignManifest(tmp_path / "campaign-manifest.json")
        stale = manifest.claim_batch(
            points_of(campaign), worker="ghost", limit=99,
            lease_s=1.0, now=time.time() - 1000.0,
        )
        assert len(stale.claimed) == campaign.total_unique
        worker = make_worker(
            campaign, tiny_context.chip, tmp_path, manifest=manifest
        )
        summary = worker.run()
        assert summary["stolen"] == campaign.total_unique
        assert summary["completed"] == campaign.total_unique
        accounting = manifest.fleet_accounting()["w0"]
        assert accounting["stolen"] == campaign.total_unique
        assert worker.telemetry.counter("fleet.steals") == campaign.total_unique


class TestChaosHooks:
    def test_injected_kill_fires_through_exit_seam(self, campaign,
                                                   tiny_context, tmp_path):
        """kill rate 1.0: the worker 'dies' right after its first claim
        commits (the stub drains instead), leaving released claims a
        successor picks up — the end-to-end crash/recovery story."""
        exits: list[int] = []
        manifest = CampaignManifest(tmp_path / "campaign-manifest.json")
        killed = make_worker(
            campaign, tiny_context.chip, tmp_path, worker_id="victim",
            manifest=manifest,
            faults=FaultPlan(seed=1, worker_kill_rate=1.0),
        )

        def die(status: int) -> None:
            exits.append(status)
            killed.drain()

        killed._exit = die
        summary = killed.run()
        assert exits == [KILL_EXIT_STATUS]
        assert summary["completed"] == 0
        assert summary["released"] == summary["claimed"] > 0
        assert manifest.claims() == {}  # drain returned them all
        survivor = make_worker(
            campaign, tiny_context.chip, tmp_path, worker_id="survivor",
            manifest=manifest,
        )
        rescue = survivor.run()
        assert rescue["completed"] == campaign.total_unique
        assert rescue["stolen"] == 0  # released, not expired: no steal
        assert manifest.completed >= set(points_of(campaign))

    def test_lease_corruption_never_wedges_the_campaign(self, campaign,
                                                        tiny_context,
                                                        tmp_path):
        worker = make_worker(
            campaign, tiny_context.chip, tmp_path,
            faults=FaultPlan(seed=2, lease_corrupt_rate=1.0),
        )
        summary = worker.run()
        assert worker.telemetry.counter("fleet.lease_corrupted") >= 1
        assert summary["completed"] == campaign.total_unique
        assert worker.manifest.completed >= set(points_of(campaign))


class TestHeartbeat:
    def _beat(self, campaign, tiny_context, tmp_path, faults, period=0.3):
        manifest = CampaignManifest(tmp_path / "campaign-manifest.json")
        worker = make_worker(
            campaign, tiny_context.chip, tmp_path, manifest=manifest,
            faults=faults, lease_s=60.0, heartbeat_s=0.02,
        )
        held = points_of(campaign)[:2]
        manifest.claim_batch(held, worker="w0", lease_s=60.0)
        before = {p: manifest.claims()[p]["deadline"] for p in held}
        worker._held.update(held)
        thread = threading.Thread(target=worker._heartbeat_loop, daemon=True)
        thread.start()
        time.sleep(period)
        worker._hb_stop.set()
        thread.join(5.0)
        return worker, manifest, before, held

    def test_heartbeat_renews_held_leases(self, campaign, tiny_context,
                                          tmp_path):
        worker, manifest, before, held = self._beat(
            campaign, tiny_context, tmp_path, faults=None
        )
        assert worker.summary["renewals"] > 0
        after = manifest.claims()
        assert all(after[p]["deadline"] > before[p] for p in held)

    def test_heartbeat_stall_skips_renewal(self, campaign, tiny_context,
                                           tmp_path):
        worker, manifest, before, held = self._beat(
            campaign, tiny_context, tmp_path,
            faults=FaultPlan(seed=3, heartbeat_stall_rate=1.0),
        )
        assert worker.summary["stalls"] > 0
        assert worker.summary["renewals"] == 0
        after = manifest.claims()
        assert all(after[p]["deadline"] == before[p] for p in held)


class TestServeProbe:
    def test_unreachable_endpoint_degrades_once(self, campaign,
                                                tiny_context, tmp_path):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        worker = make_worker(
            campaign, tiny_context.chip, tmp_path,
            serve=("127.0.0.1", dead_port),
        )
        summary = worker.run()
        assert worker._serve_down is True
        assert summary["serve_hits"] == 0
        assert summary["completed"] == campaign.total_unique

    def test_warm_endpoint_feeds_the_fleet(self, campaign, tiny_context,
                                           tmp_path):
        """A serve endpoint whose disk tier already holds the campaign
        answers every fetch — the fleet executes nothing."""
        from repro.serve import SimulationService, start_server

        telemetry = Telemetry()
        warm = ResultCache(cache_dir=tmp_path / "serve-cache")
        run_serially(campaign, tiny_context.chip, warm)
        service = SimulationService(
            tiny_context.chip, tiny_context.options,
            cache=warm, jobs=1, telemetry=Telemetry(),
        )
        server, thread = start_server(service, port=0)
        try:
            worker = make_worker(
                campaign, tiny_context.chip, tmp_path,
                serve=("127.0.0.1", server.port), telemetry=telemetry,
            )
            summary = worker.run()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(10.0)
            service.stop()
        assert summary["serve_hits"] == campaign.total_unique
        assert summary["completed"] == campaign.total_unique
        assert telemetry.counter("engine.runs_executed") == 0
        assert telemetry.counter("fleet.serve_hits") == campaign.total_unique
