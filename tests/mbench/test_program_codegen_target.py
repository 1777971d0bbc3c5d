"""Program IR, assembly emission and target binding tests."""

import hashlib
import pickle

import pytest

from repro.errors import GenerationError
from repro.mbench.codegen import emit_assembly
from repro.mbench.loops import build_epi_loop, build_sequence_loop
from repro.mbench.program import InstructionInstance, Program
from repro.mbench.target import Target, default_target


class TestInstructionInstance:
    def test_operand_count_enforced(self, isa):
        cib = isa["CIB"]  # three operands
        with pytest.raises(GenerationError):
            InstructionInstance(cib, ("r1",))

    def test_render(self, isa):
        cib = isa["CIB"]
        inst = InstructionInstance(cib, ("r1", "7", "loop"))
        assert inst.render() == "CIB r1,7,loop"

    def test_render_no_operands(self, isa):
        srnm = isa["SRNM"]
        assert InstructionInstance(srnm, ()).render() == "SRNM"


class TestProgram:
    def test_empty_loop_rejected(self):
        for loop in ({"loop_body": []}, {"loop_definitions": ()}, {}):
            with pytest.raises(GenerationError):
                Program(name="x", **loop)

    def test_size_counts_prologue(self, isa):
        program = build_sequence_loop(isa, (isa["CIB"],), unroll=2)
        assert program.size == len(program.loop_body)

    def test_explicit_loop_body_kept(self, isa):
        body = [InstructionInstance(isa["CIB"], ("r1", "7", "loop"))]
        program = Program(name="x", loop_body=body)
        assert program.loop_body == body
        assert program.loop_definitions == (isa["CIB"],)

    @pytest.mark.parametrize("rendered", [False, True])
    def test_pickles(self, isa, rendered):
        program = build_epi_loop(isa, isa["STG"], repetitions=20)
        if rendered:
            program.loop_body
        copy = pickle.loads(pickle.dumps(program))
        assert copy.loop_definitions == program.loop_definitions
        assert emit_assembly(copy) == emit_assembly(program)


class TestCodegen:
    def test_emission_contains_label_and_body(self, isa):
        program = build_sequence_loop(
            isa, (isa["CIB"], isa["CHHSI"]), unroll=1, trip_count=1000
        )
        text = emit_assembly(program)
        assert f"{program.loop_label}:" in text
        assert "CIB" in text
        assert "CHHSI" in text
        assert "LHI r3,1000" in text  # trip-count setup

    def test_endless_loop_marker(self, isa):
        program = build_epi_loop(isa, isa["CIB"], repetitions=5)
        text = emit_assembly(program)
        assert "endless" in text

    def test_full_epi_body_is_emitted(self, isa):
        program = build_epi_loop(isa, isa["CIB"], repetitions=100)
        text = emit_assembly(program)
        assert text.count("CIB") >= 100


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedAssembly:
    """Emitted assembly, operand renderings included, pinned byte for
    byte."""

    def test_epi_loop(self, isa):
        program = build_epi_loop(isa, isa["CIB"], repetitions=100)
        assert _sha256(emit_assembly(program)) == (
            "b0137d682311313247f56d950f82e53657924188a9a12c2bf0cae13f76392f5b"
        )

    def test_sequence_loop_with_trip_count(self, isa):
        program = build_sequence_loop(
            isa, (isa["CIB"], isa["CHHSI"], isa["STG"]), unroll=3, trip_count=1000
        )
        assert _sha256(emit_assembly(program)) == (
            "b940bbe43d846e530ea197206e2a673fa95897f0414c6995d50b11df85125a5c"
        )

    def test_max_stressmark(self, max_stressmark):
        assert _sha256(max_stressmark.assembly()) == (
            "c73033b7ef3c0c7f9126fc407062bb70fed268adda57dedb6a1df16d45e2416f"
        )


class TestTarget:
    def test_default_target_binds_reference_platform(self, target):
        assert len(target.isa) == 1301
        assert target.core.clock_hz == 5.5e9

    def test_profile_and_power(self, target):
        program = build_sequence_loop(isa=target.isa, sequence=(target.isa["CIB"],), unroll=24)
        profile = target.profile(program)
        estimate = target.power(program)
        assert profile.ipc > 0
        assert estimate.watts > target.core.static_power_w

    def test_energy_model_cached(self, target):
        assert target.energy_model is target.energy_model

    def test_idle_current(self, target):
        assert target.idle_current == pytest.approx(
            target.core.static_power_w / target.core.vnom
        )
