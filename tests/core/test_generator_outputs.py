"""Generator outputs pinned exactly, cached by content, and measured
without rendering.

The EPI rows, the max-power search result and the medium dilution of a
generator over the reference target are fixed values: a change to how
loops are built or measured must reproduce them bit for bit, whether
they are computed (a cache miss) or rebuilt from their records on disk
(a hit).  Measurement reads only instruction definitions, so none of
it may render an operand.
"""

import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core import generator as generator_module
from repro.core.epi import generate_epi_profile
from repro.core.generator import StressmarkGenerator
from repro.core.search import _measure_sequence
from repro.core.stressmark import StressmarkBuilder, StressmarkSpec
from repro.engine import cache as cache_module
from repro.engine.cache import ResultCache
from repro.isa.isa import Isa
from repro.mbench.program import _OperandMaterializer
from repro.mbench.target import Target
from repro.measure.powermeter import PowerMeter
from repro.obs import Telemetry

SRC = Path(__file__).resolve().parents[2] / "src"

#: The functions a miss computes through, called by their names in
#: ``repro.core.generator``.
COMPUTING = ("generate_epi_profile", "search_max_power_sequence")

OUTPUTS = ("epi_profile", "max_power_result", "medium_dilution")


def generate(target, cache, outputs=OUTPUTS):
    """A fresh generator over *target* whose *outputs* were read with
    *cache* as the process-wide cache, and the computing functions it
    called."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cache_module, "_GLOBAL", cache)
        for name in COMPUTING:
            real = getattr(generator_module, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            patch.setattr(generator_module, name, counted)
        generator = StressmarkGenerator(
            target=target, epi_repetitions=60, ipc_keep=150
        )
        for output in outputs:
            getattr(generator, output)
    return generator, calls


def subset_target(target, edit=None):
    """A target over every 40th definition of *target*'s ISA (cheap to
    profile); *edit* replaces the last definition."""
    definitions = list(target.isa)[::40]
    if edit is not None:
        definitions[-1] = edit(definitions[-1])
    return Target(isa=Isa("subset", definitions), core=target.core)


@pytest.fixture(scope="module")
def records(tmp_path_factory, target):
    """A cache directory that one generator filled on a miss."""
    cache_dir = tmp_path_factory.mktemp("generator-records")
    telemetry = Telemetry()
    computed, calls = generate(
        target, ResultCache(cache_dir=cache_dir, telemetry=telemetry)
    )
    return SimpleNamespace(
        cache_dir=cache_dir, computed=computed, calls=calls,
        telemetry=telemetry,
    )


def _epi_rows_digest(profile) -> str:
    rows = "\n".join(
        f"{e.rank} {e.mnemonic} {e.power_w!r} {e.ipc!r}" for e in profile.entries
    )
    return hashlib.sha256(rows.encode()).hexdigest()


class TestPinnedOutputs:
    """The outputs as computed on a cache miss."""

    @pytest.fixture(scope="class")
    def pinned(self, records):
        return records.computed

    def test_epi_rows(self, pinned):
        profile = pinned.epi_profile
        head = [(e.rank, e.mnemonic, e.power_w, e.ipc) for e in profile.top(3)]
        assert head == [
            (1, "CIB", 22.945, 0.9974758437604658),
            (2, "CHHSI", 22.866, 2.0330702059336927),
            (3, "CRB", 22.848, 0.9999861760092872),
        ]
        tail = [(e.rank, e.mnemonic, e.power_w, e.ipc) for e in profile.bottom(2)]
        assert tail == [
            (1300, "SRNM", 14.573, 0.0253724407436038),
            (1301, "STCK", 14.551, 0.0363375683626428),
        ]
        assert _epi_rows_digest(profile) == (
            "bf31cea626672ca0d95c23012474e9887381a330e2002d21e9c40af3219bc7c6"
        )

    def test_max_power_search(self, pinned):
        result = pinned.max_power_result
        assert result.mnemonics == [
            "VERLLQ", "AXBR2", "CIB", "VERLLQ", "AXBR2", "CIB",
        ]
        assert result.power_w == 35.659
        assert result.validation_powers == [35.317, 35.025]
        assert result.evaluated == 150
        assert result.enumerated == 531_441
        micro, ipc = result.microarch_stats, result.ipc_stats
        assert (micro.examined, micro.accepted) == (531_441, 124_452)
        assert (ipc.examined, ipc.accepted) == (124_452, 150)

    def test_medium_dilution(self, pinned):
        dilution = pinned.medium_dilution
        assert (dilution.high_copies, dilution.low_copies) == (14, 1)
        assert dilution.power_w == 25.070350000000005


class TestPinnedOutputsFromDisk(TestPinnedOutputs):
    """The same outputs rebuilt from their records by a fresh cache
    over the directory the miss filled."""

    @pytest.fixture(scope="class")
    def pinned(self, records, target):
        rebuilt, calls = generate(
            target, ResultCache(cache_dir=records.cache_dir)
        )
        assert calls == []
        return rebuilt


class TestGeneratorCache:
    def test_a_miss_computes_and_publishes_three_records(self, records):
        assert records.calls == list(COMPUTING)
        assert records.telemetry.counter("engine.cache.misses") == 3
        assert records.telemetry.counter("engine.cache.disk_writes") == 3

    def test_a_hit_rebuilds_against_the_isa(self, records, target):
        telemetry = Telemetry()
        rebuilt, calls = generate(
            target, ResultCache(cache_dir=records.cache_dir, telemetry=telemetry)
        )
        assert calls == []
        assert telemetry.counter("engine.cache.disk_hits") == 3
        computed = records.computed
        assert rebuilt.epi_profile.entries == computed.epi_profile.entries
        assert rebuilt.max_power_result == computed.max_power_result
        assert rebuilt.medium_dilution == computed.medium_dilution
        isa = target.isa
        result = rebuilt.max_power_result
        assert all(
            entry.instruction is isa[entry.mnemonic]
            for entry in rebuilt.epi_profile.entries
        )
        assert all(
            inst is isa[inst.mnemonic]
            for inst in result.sequence + tuple(result.candidates)
            + rebuilt.medium_dilution.body
        )

    def test_every_field_is_part_of_the_key(self, target):
        cache = ResultCache()
        _, first = generate(subset_target(target), cache, ("epi_profile",))
        _, same = generate(subset_target(target), cache, ("epi_profile",))
        _, described = generate(
            subset_target(
                target,
                lambda inst: dataclasses.replace(
                    inst, description=inst.description + " (revised)"
                ),
            ),
            cache,
            ("epi_profile",),
        )
        core = Target(
            isa=subset_target(target).isa,
            core=dataclasses.replace(target.core, name="other-core"),
        )
        _, cored = generate(core, cache, ("epi_profile",))
        assert first == ["generate_epi_profile"]
        assert same == []
        assert described == ["generate_epi_profile"]
        assert cored == ["generate_epi_profile"]

    def test_key_is_the_same_in_every_process(self, target):
        code = (
            "from repro.core.generator import StressmarkGenerator\n"
            "print(StressmarkGenerator(epi_repetitions=60, ipc_keep=150)"
            "._record_key('search'))"
        )
        keys = set()
        for hash_seed in ("0", "4242"):
            env = {
                key: value
                for key, value in os.environ.items()
                if not key.startswith("REPRO_")
            }
            env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
            done = subprocess.run(
                [sys.executable, "-c", code],
                env=env, capture_output=True, text=True, timeout=120,
                check=True,
            )
            keys.add(done.stdout.strip())
        local = StressmarkGenerator(
            target=target, epi_repetitions=60, ipc_keep=150
        )._record_key("search")
        assert keys == {local}

    def test_a_torn_record_is_quarantined_and_recomputed(
        self, target, tmp_path
    ):
        small = subset_target(target)
        computed, _ = generate(
            small, ResultCache(cache_dir=tmp_path), ("epi_profile",)
        )
        (record,) = tmp_path.glob("??/*.pkl")
        record.write_bytes(record.read_bytes()[:40])
        telemetry = Telemetry()
        recomputed, calls = generate(
            small,
            ResultCache(cache_dir=tmp_path, telemetry=telemetry),
            ("epi_profile",),
        )
        assert calls == ["generate_epi_profile"]
        assert telemetry.counter("engine.cache.quarantined") == 1
        assert (tmp_path / "quarantine" / record.name).is_file()
        assert recomputed.epi_profile.entries == computed.epi_profile.entries
        _, calls = generate(
            small, ResultCache(cache_dir=tmp_path), ("epi_profile",)
        )
        assert calls == []


class TestTargetOnFirstUse:
    """The reference target is built the first time the generator's
    target or an output is read, not when the generator is made."""

    @pytest.fixture()
    def built(self, monkeypatch, target):
        """Targets the spied ``default_target`` built (cheap subsets
        of the reference target)."""
        built = []

        def default_target():
            built.append(subset_target(target))
            return built[-1]

        monkeypatch.setattr(generator_module, "default_target", default_target)
        return built

    def test_construction_builds_no_target(self, built, monkeypatch):
        generator = StressmarkGenerator(epi_repetitions=60, ipc_keep=150)
        assert built == []
        monkeypatch.setattr(cache_module, "_GLOBAL", ResultCache())
        profile = generator.epi_profile
        assert len(built) == 1
        assert generator.target is built[0]
        assert all(
            entry.instruction is built[0].isa[entry.mnemonic]
            for entry in profile.entries
        )
        generator.max_power_result
        assert len(built) == 1

    def test_an_explicit_target_is_used_as_given(
        self, built, target, monkeypatch
    ):
        small = subset_target(target)
        generator = StressmarkGenerator(
            target=small, epi_repetitions=60, ipc_keep=150
        )
        monkeypatch.setattr(cache_module, "_GLOBAL", ResultCache())
        generator.epi_profile
        assert generator.target is small
        assert built == []


class TestMeasurementRendersNothing:
    @pytest.fixture()
    def no_rendering(self, monkeypatch):
        def refuse(self, definition):
            raise AssertionError(f"rendered operands of {definition.mnemonic}")

        monkeypatch.setattr(_OperandMaterializer, "materialize", refuse)

    def test_epi_profiling(self, target, no_rendering):
        subset = list(target.isa)[::65]
        profile = generate_epi_profile(target, instructions=subset)
        assert len(profile) == len(subset)

    def test_sequence_power_evaluation(self, target, no_rendering):
        isa = target.isa
        sequence = (isa["CIB"], isa["CHHSI"], isa["STG"])
        power = _measure_sequence(sequence, target, PowerMeter(target), tag=0)
        assert power > target.core.static_power_w

    def test_stressmark_build(self, target, no_rendering):
        isa = target.isa
        builder = StressmarkBuilder(target, (isa["CIB"], isa["STG"]), (isa["SRNM"],))
        mark = builder.build(StressmarkSpec(stimulus_freq_hz=2.6e6, synchronize=True))
        assert mark.delta_i > 0
