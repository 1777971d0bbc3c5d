"""Generator outputs pinned exactly, and measured without rendering.

The EPI rows, the max-power search result and the medium dilution of
the session ``generator`` fixture are fixed values: a change to how
loops are built or measured must reproduce them bit for bit.
Measurement reads only instruction definitions, so none of it may
render an operand.
"""

import hashlib

import pytest

from repro.core.epi import generate_epi_profile
from repro.core.search import _measure_sequence
from repro.core.stressmark import StressmarkBuilder, StressmarkSpec
from repro.measure.powermeter import PowerMeter
from repro.mbench.program import _OperandMaterializer


def _epi_rows_digest(profile) -> str:
    rows = "\n".join(
        f"{e.rank} {e.mnemonic} {e.power_w!r} {e.ipc!r}" for e in profile.entries
    )
    return hashlib.sha256(rows.encode()).hexdigest()


class TestPinnedOutputs:
    def test_epi_rows(self, generator):
        profile = generator.epi_profile
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

    def test_max_power_search(self, generator):
        result = generator.max_power_result
        assert result.mnemonics == [
            "VERLLQ", "AXBR2", "CIB", "VERLLQ", "AXBR2", "CIB",
        ]
        assert result.power_w == 35.659
        assert result.validation_powers == [35.317, 35.025]
        assert result.evaluated == 150

    def test_medium_dilution(self, generator):
        dilution = generator.medium_dilution
        assert (dilution.high_copies, dilution.low_copies) == (14, 1)
        assert dilution.power_w == 25.070350000000005


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
