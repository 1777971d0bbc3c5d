"""Multiprocess hammer tests for the campaign manifest.

Real processes (not threads) pound one manifest path through the
public mutators — the scenario the writer lock, the atomic-rename
stale-lock break, and the claim table exist for.  The invariants:

* no lost updates — every completion every process recorded survives;
* mutual exclusion — a locked read-modify-write counter never drops
  an increment, even with a stale lock seeded to force the break path;
* claim exclusivity — no run is ever handed to two workers at once.

Workers retry :class:`~repro.errors.ConcurrencyError` in a loop: the
retry budget inside the lock exists to *bound politeness*, not to make
a hammer test flaky.
"""

from __future__ import annotations

import json
import multiprocessing
import subprocess
import sys
import time

import pytest

from repro.engine import CampaignManifest
from repro.errors import ConcurrencyError

PROCS = 4
#: Wall-clock budget of one hammer; workers still running are killed.
WORKER_TIMEOUT_S = 120.0


def _until_locked(operation):
    """Run *operation* until it stops raising ConcurrencyError (the
    hammer's politeness loop; bounded by the test timeout)."""
    while True:
        try:
            return operation()
        except ConcurrencyError:
            continue


def _mark_worker(path: str, barrier, worker: str, points: list[str]) -> None:
    manifest = CampaignManifest(path)
    barrier.wait()
    for start in range(0, len(points), 5):
        batch = points[start:start + 5]
        _until_locked(
            lambda: manifest.mark_many_complete(batch, worker=worker)
        )


def _merge_worker(path: str, barrier, source: str) -> None:
    dest = CampaignManifest(path)
    shard = CampaignManifest(source)
    barrier.wait()
    _until_locked(lambda: dest.merge_from(shard))


def _claim_worker(path: str, barrier, worker: str, points: list[str],
                  out: str) -> None:
    manifest = CampaignManifest(path)
    barrier.wait()
    mine: list[str] = []
    while True:
        # Only ask for points we don't hold: re-offering an own claim
        # renews it (claimed again), which would loop forever here.
        candidates = [p for p in points if p not in mine]
        decision = _until_locked(
            lambda: manifest.claim_batch(
                candidates, worker=worker, limit=5, lease_s=3600.0
            )
        )
        mine.extend(decision.claimed)
        if not decision.claimed:
            # Exhausted, or everything left is under a live lease held
            # by a sibling (leases are an hour — nothing to steal).
            break
    with open(out, "w") as handle:
        json.dump(mine, handle)


def _counter_worker(path: str, barrier, counter: str, rounds: int) -> None:
    manifest = CampaignManifest(path)
    barrier.wait()
    for _ in range(rounds):
        def bump() -> None:
            with manifest.writer_lock():
                value = int(open(counter).read())
                with open(counter, "w") as handle:
                    handle.write(str(value + 1))
        _until_locked(bump)


def _run(target, argslist):
    """Run one worker process per *argslist* entry behind a start
    barrier.  Workers still running after :data:`WORKER_TIMEOUT_S` (a
    livelocked lock) are killed, so a regression fails this test instead of
    hanging the interpreter's exit on non-daemon children."""
    barrier = multiprocessing.Barrier(len(argslist))
    procs = [
        multiprocessing.Process(target=target, args=(args[0], barrier, *args[1:]))
        for args in argslist
    ]
    for proc in procs:
        proc.start()
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    for proc in procs:
        proc.join(timeout=max(0.0, deadline - time.monotonic()))
    hung = [proc for proc in procs if proc.is_alive()]
    for proc in hung:
        proc.kill()
        proc.join()
    assert not hung, (
        f"{len(hung)} worker(s) still running after {WORKER_TIMEOUT_S} s"
    )
    assert all(proc.exitcode == 0 for proc in procs)


@pytest.fixture()
def manifest(tmp_path):
    return CampaignManifest(tmp_path / "campaign-manifest.json")


class TestConcurrentWriters:
    def test_mark_many_complete_no_lost_updates(self, manifest):
        """Satellite acceptance: concurrent completion batches from
        different workers never lose updates."""
        path = str(manifest.path)
        plans = [
            (path, f"w{n}", [f"run:{n}-{i:02d}" for i in range(25)])
            for n in range(PROCS)
        ]
        _run(_mark_worker, plans)
        completed = manifest.completed
        for _, worker, points in plans:
            assert set(points) <= completed, f"{worker} lost updates"
        assert len(completed) == PROCS * 25
        accounting = manifest.fleet_accounting()
        assert all(accounting[f"w{n}"]["completed"] == 25
                   for n in range(PROCS))

    def test_merge_from_concurrent_writers(self, manifest, tmp_path):
        """Satellite acceptance: shard folds racing each other publish
        atomically — the union holds every shard's points."""
        shards = []
        for n in range(PROCS):
            shard = CampaignManifest(
                tmp_path / f"shard{n}" / "campaign-manifest.json"
            )
            shard.path.parent.mkdir(parents=True)
            shard.bind_campaign({"plan": "abc", "shard": f"{n}of{PROCS}"})
            shard.mark_many_complete([f"run:{n}-{i:02d}" for i in range(20)])
            shards.append(shard)
        _run(
            _merge_worker,
            [(str(manifest.path), str(s.path)) for s in shards],
        )
        assert len(manifest.completed) == PROCS * 20
        assert manifest.campaign == {"plan": "abc"}

    def test_claim_batch_grants_are_disjoint(self, manifest, tmp_path):
        """No run is ever claimed by two live workers: the union of the
        claim grants covers the campaign, with zero overlap."""
        points = [f"run:{i:03d}" for i in range(40)]
        outs = [str(tmp_path / f"claims-{n}.json") for n in range(PROCS)]
        _run(
            _claim_worker,
            [
                (str(manifest.path), f"w{n}", points, outs[n])
                for n in range(PROCS)
            ],
        )
        grants = [json.load(open(out)) for out in outs]
        flat = [point for grant in grants for point in grant]
        assert len(flat) == len(set(flat)), "a run was claimed twice"
        assert set(flat) == set(points)

    def test_locked_counter_with_seeded_stale_lock(self, manifest, tmp_path):
        """Mutual exclusion through the stale-lock break: a dead
        holder's lockfile is seeded before the stampede, and the
        locked read-modify-write counter still never drops an
        increment (exactly one breaker may win the rename)."""
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()
        manifest.lock_path.parent.mkdir(parents=True, exist_ok=True)
        manifest.lock_path.write_text(str(dead.pid))
        counter = tmp_path / "counter.txt"
        counter.write_text("0")
        rounds = 20
        _run(
            _counter_worker,
            [(str(manifest.path), str(counter), rounds)] * PROCS,
        )
        assert int(counter.read_text()) == PROCS * rounds
        assert not manifest.lock_path.exists()
