"""Multi-chip hosting: roster resolution, lazy builds, LRU eviction,
and default-chip neutrality.

The roster's contract: chip *identity* is cheap (registration compiles,
never builds), chip *build* is lazy (first execution-tier miss, on the
executor thread), at most ``max_resident_chips`` non-default chips stay
built, and the default chip is pinned — a service hosting extra chips
answers default-chip requests byte-identically to a single-chip
service.
"""

from __future__ import annotations

import gc
import threading
import weakref

import pytest

from repro.chips import ChipSpec, get_family
from repro.engine.cache import ResultCache
from repro.errors import ConfigError
from repro.machine.chip import Chip
from repro.obs import Telemetry
from repro.serve import SimulationService

from .conftest import simulate_payload


def family_service(chip, cheap_options, telemetry, **kwargs):
    kwargs.setdefault("chips", get_family("quick").members())
    return SimulationService(
        chip,
        cheap_options,
        cache=ResultCache(cache_dir=None, telemetry=telemetry),
        jobs=1,
        telemetry=telemetry,
        **kwargs,
    ).start()


@pytest.fixture()
def multi(chip, cheap_options, telemetry):
    svc = family_service(chip, cheap_options, telemetry)
    yield svc
    svc.stop()


class TestRoster:
    def test_default_member_aliases_the_pinned_entry(self, multi):
        """``quick/cores6`` is the reference chip: it must resolve to
        the pinned default entry, not get hosted twice."""
        stats = multi.roster.stats()
        assert stats["hosted"] == 3  # default + cores4 + cores8
        entry = multi.roster.resolve("quick/cores6")
        assert entry is multi.roster.default
        assert multi.roster.resolve("cores6") is entry
        assert multi.roster.resolve(entry.digest) is entry
        assert multi.roster.resolve(None) is entry

    def test_unknown_chip_is_a_bad_request(self, multi):
        reply = multi.handle({**simulate_payload(), "chip": "cores5"})
        assert reply["ok"] is False
        assert reply["status"] == "bad-request"
        assert "unknown chip" in reply["error"]

    def test_duplicate_hosted_identity_refused(
        self, chip, cheap_options, telemetry
    ):
        twin = ChipSpec(name="other", n_cores=4)
        with pytest.raises(ConfigError, match="duplicates"):
            family_service(
                chip, cheap_options, telemetry,
                chips=(*get_family("quick").members(), twin),
            ).stop()

    def test_max_resident_must_be_positive(
        self, chip, cheap_options, telemetry
    ):
        with pytest.raises(ConfigError, match="max_resident"):
            family_service(
                chip, cheap_options, telemetry, max_resident_chips=0
            )


class TestNeutrality:
    def test_default_requests_match_a_single_chip_service(
        self, multi, service
    ):
        """The neutrality guarantee at the wire: same request, same
        fingerprint, whether or not extra chips are hosted — and the
        family alias of the reference member is the same address."""
        payload = simulate_payload()
        hosted = multi.handle(payload)
        solo = service.handle(payload)
        assert hosted["ok"] and solo["ok"]
        assert hosted["fingerprint"] == solo["fingerprint"]
        aliased = multi.handle({**payload, "chip": "cores6"})
        assert aliased["fingerprint"] == hosted["fingerprint"]
        assert aliased["tier"] == "hot"

    def test_chips_fingerprint_distinctly(self, multi):
        payload = simulate_payload()
        replies = {
            name: multi.handle({**payload, "chip": name})
            for name in ("cores4", "cores6", "cores8")
        }
        assert all(reply["ok"] for reply in replies.values())
        fingerprints = {
            reply["fingerprint"] for reply in replies.values()
        }
        assert len(fingerprints) == 3


class TestResidencyAndEviction:
    def test_builds_are_lazy(self, multi):
        assert multi.roster.stats()["resident"] == 1  # only the default
        reply = multi.handle({**simulate_payload(), "chip": "cores4"})
        assert reply["ok"] and reply["tier"] == "executed"
        stats = multi.roster.stats()
        assert stats["builds"] == 1
        assert stats["resident"] == 2

    def test_lru_eviction_over_budget(
        self, chip, cheap_options, telemetry
    ):
        svc = family_service(
            chip, cheap_options, telemetry, max_resident_chips=1
        )
        try:
            payload = simulate_payload()
            assert svc.handle({**payload, "chip": "cores4"})["ok"]
            assert svc.handle({**payload, "chip": "cores8"})["ok"]
            stats = svc.roster.stats()
            assert stats["builds"] == 2
            assert stats["evictions"] == 1
            by_name = {entry["name"]: entry for entry in stats["chips"]}
            assert by_name["default"]["resident"]  # pinned, never evicted
            assert not by_name["quick/cores4"]["resident"]
            assert by_name["quick/cores8"]["resident"]
        finally:
            svc.stop()

    def test_evicted_chip_keeps_its_hot_tier(
        self, chip, cheap_options, telemetry
    ):
        """Eviction drops the heavy build, not the answers: replaying
        an evicted chip's request is a hot-tier JSON reply, no
        rebuild."""
        svc = family_service(
            chip, cheap_options, telemetry, max_resident_chips=1
        )
        try:
            payload = simulate_payload()
            first = svc.handle({**payload, "chip": "cores4"})
            assert first["tier"] == "executed"
            svc.handle({**payload, "chip": "cores8"})  # evicts cores4
            again = svc.handle({**payload, "chip": "cores4"})
            assert again["ok"] and again["tier"] == "hot"
            assert again["fingerprint"] == first["fingerprint"]
            assert svc.roster.stats()["builds"] == 2  # no rebuild
        finally:
            svc.stop()

    def test_eviction_drops_the_warm_session(
        self, chip, cheap_options, telemetry
    ):
        """Warm sessions are keyed by chip digest; evicting a chip must
        drop its sessions so a later rebuild cannot answer from a stale
        chip object."""
        svc = family_service(
            chip, cheap_options, telemetry, max_resident_chips=1
        )
        try:
            payload = simulate_payload()
            svc.handle({**payload, "chip": "cores4"})
            cores4_digest = svc.roster.resolve("cores4").digest
            assert any(
                digest == cores4_digest for digest, _ in svc._sessions
            )
            svc.handle({**payload, "chip": "cores8"})  # evicts cores4
            assert not any(
                digest == cores4_digest for digest, _ in svc._sessions
            )
        finally:
            svc.stop()

    def test_evicted_chips_free_their_kernels(
        self, chip, cheap_options, telemetry, monkeypatch
    ):
        """The residency budget bounds memory: rotating small members
        through one resident slot frees each evicted chip, its kernel
        and the stimulus timing its kernel memoized, identical live
        chips share one kernel, and in-process execution runs on the
        built chip instead of building another."""
        built = []  # class names: holding the chips would keep them alive
        original_init = Chip.__init__

        def counting_init(self, *args, **kwargs):
            built.append(type(self).__name__)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(Chip, "__init__", counting_init)
        specs = [
            ChipSpec(name=f"small/id{i}", n_cores=4, chip_id=i)
            for i in (1, 2, 3)
        ]
        svc = family_service(
            chip, cheap_options, telemetry, chips=specs,
            max_resident_chips=1,
        )
        try:
            refs = []
            for spec in specs:
                reply = svc.handle({**simulate_payload(), "chip": spec.name})
                assert reply["ok"] and reply["tier"] == "executed"
                member = svc.roster.resolve(spec.name).chip
                kernel = member.compiled_kernel
                grids = [
                    weakref.ref(value)
                    for key, (value, _) in kernel._memo._entries.items()
                    if key[0] == "grid"
                ]
                assert grids  # the execution memoized its sample grid
                refs.append((weakref.ref(member), weakref.ref(kernel), grids))
            del member, kernel
            assert len(built) == len(specs)  # one build each, no rerun
            assert svc.roster.stats()["evictions"] == len(specs) - 1
            gc.collect()
            for chip_ref, kernel_ref, grids in refs[:-1]:
                assert chip_ref() is None
                assert kernel_ref() is None
                assert all(grid() is None for grid in grids)
            live = svc.roster.resolve(specs[-1].name).chip
            assert refs[-1][0]() is live
            assert specs[-1].build().compiled_kernel is live.compiled_kernel
        finally:
            svc.stop()


class TestConcurrentClients:
    def test_mixed_chip_clients_all_answer(self, multi):
        """Concurrent clients against different hosted chips: every
        request answers on its own chip identity (no cross-chip
        bleed), through one executor thread."""
        names = ["cores4", "cores6", "cores8"] * 3
        replies: dict[int, dict] = {}

        def client(index: int, name: str) -> None:
            payload = simulate_payload(i_high=20.0 + index)
            replies[index] = multi.handle({**payload, "chip": name})

        threads = [
            threading.Thread(target=client, args=(index, name))
            for index, name in enumerate(names)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        assert len(replies) == len(names)
        assert all(reply["ok"] for reply in replies.values())
        # Every (payload, chip) pair fingerprints distinctly — no
        # cross-chip or cross-request bleed through the shared queue.
        fingerprints = {
            reply["fingerprint"] for reply in replies.values()
        }
        assert len(fingerprints) == len(names)
