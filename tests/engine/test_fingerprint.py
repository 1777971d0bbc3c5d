"""Fingerprint tests: canonical forms and run content addressing."""

import gc
import sys
import threading
import weakref

import numpy as np

from repro.engine import fingerprint as fingerprint_module
from repro.engine.fingerprint import (
    _dataclass_text,
    canonical,
    chip_fingerprint,
    content_key,
    is_deterministic_mapping,
    run_fingerprint,
)
from repro.machine.chip import Chip
from repro.machine.runner import RunOptions
from repro.machine.workload import CurrentProgram, idle_program

from .conftest import didt


class TestCanonical:
    def test_dicts_are_order_insensitive(self):
        assert canonical({"a": 1, "b": 2}) == canonical({"b": 2, "a": 1})

    def test_numpy_scalars_collapse_to_python(self):
        assert canonical(np.float64(1.5)) == canonical(1.5)
        assert canonical(np.int64(3)) == canonical(3)

    def test_dataclasses_expand_by_field(self):
        text = canonical(RunOptions(segments=3))
        assert text.startswith("RunOptions(")
        assert "segments=3" in text

    def test_content_key_is_stable_and_injective_on_parts(self):
        assert content_key("a", "b") == content_key("a", "b")
        assert content_key("a", "b") != content_key("ab")
        assert content_key("a", "b") != content_key("b", "a")


class TestMappingDeterminism:
    def test_synced_and_steady_mappings_are_deterministic(self):
        assert is_deterministic_mapping([didt(sync=True)] * 6)
        assert is_deterministic_mapping([idle_program(13.0)] * 6)
        assert is_deterministic_mapping([None] * 6)

    def test_unsynced_mapping_is_not(self):
        assert not is_deterministic_mapping(
            [didt(sync=False)] + [None] * 5
        )


class TestRunFingerprint:
    def test_deterministic_runs_ignore_tag_and_seed(self):
        mapping = [didt(sync=True)] * 6
        a = run_fingerprint("chipfp", mapping, RunOptions(seed=0), "tag-a")
        b = run_fingerprint("chipfp", mapping, RunOptions(seed=99), "tag-b")
        assert a == b

    def test_randomized_runs_keyed_by_tag_and_seed(self):
        mapping = [didt(sync=False)] * 6
        base = run_fingerprint("chipfp", mapping, RunOptions(seed=0), "t")
        assert base != run_fingerprint(
            "chipfp", mapping, RunOptions(seed=1), "t"
        )
        assert base != run_fingerprint(
            "chipfp", mapping, RunOptions(seed=0), "u"
        )
        assert base == run_fingerprint(
            "chipfp", mapping, RunOptions(seed=0), "t"
        )

    def test_options_still_distinguish_runs(self):
        mapping = [didt(sync=True)] * 6
        assert run_fingerprint(
            "chipfp", mapping, RunOptions(segments=2), "t"
        ) != run_fingerprint("chipfp", mapping, RunOptions(segments=4), "t")

    def test_programs_distinguish_runs(self):
        a = run_fingerprint(
            "chipfp", [didt(i_high=32.0)] * 6, RunOptions(), "t"
        )
        b = run_fingerprint(
            "chipfp", [didt(i_high=30.0)] * 6, RunOptions(), "t"
        )
        assert a != b

    def test_chip_fingerprint_distinguishes_variation_draw(self, chip):
        other = Chip(chip.config, chip_id=chip.chip_id + 1)
        assert chip_fingerprint(chip) != chip_fingerprint(other)
        assert chip_fingerprint(chip) == chip_fingerprint(
            Chip(chip.config, chip_id=chip.chip_id)
        )


class TestProgramTextMemo:
    """Each live program's canonical text is memoized by identity and
    held weakly; the text itself never changes."""

    def test_memoized_text_is_the_field_expansion(self):
        program = didt(sync=False)
        expected = (
            "CurrentProgram(name='m',i_low=14.0,i_high=32.0,"
            "freq_hz=2600000.0,duty=0.5,rise_time=1.1e-08,sync=None)"
        )
        assert canonical(program) == expected
        assert canonical(program) == expected  # served by the memo
        assert id(program) in fingerprint_module._PROGRAM_TEXT

    def test_equal_programs_with_different_reprs_keep_their_own_text(self):
        """A frozen dataclass compares ``1 == 1.0`` and ``0.0 == -0.0``
        equal, but their canonical texts differ; a value-keyed memo
        would hand one program the other's text."""
        ints = CurrentProgram("p", i_low=1, i_high=2)
        floats = CurrentProgram("p", i_low=1.0, i_high=2.0)
        zero = CurrentProgram("p", i_low=0.0, i_high=0.0)
        negative_zero = CurrentProgram("p", i_low=-0.0, i_high=0.0)
        assert ints == floats and zero == negative_zero
        texts = [
            canonical(program)
            for program in (ints, floats, zero, negative_zero)
        ]
        tail = ",freq_hz=None,duty=0.5,rise_time=2e-09,sync=None)"
        assert texts == [
            "CurrentProgram(name='p',i_low=1,i_high=2" + tail,
            "CurrentProgram(name='p',i_low=1.0,i_high=2.0" + tail,
            "CurrentProgram(name='p',i_low=0.0,i_high=0.0" + tail,
            "CurrentProgram(name='p',i_low=-0.0,i_high=0.0" + tail,
        ]
        assert canonical(floats) == texts[1]
        assert canonical(ints) == texts[0]

    def test_dropped_program_is_collected_and_forgotten(self):
        program = didt(i_high=31.0)
        canonical([program] * 6)
        key = id(program)
        assert key in fingerprint_module._PROGRAM_TEXT
        ref = weakref.ref(program)
        del program
        gc.collect()
        assert ref() is None
        assert key not in fingerprint_module._PROGRAM_TEXT

    def test_run_fingerprint_is_unchanged_by_the_memo(self):
        mapping = [didt(sync=False)] * 6
        first = run_fingerprint("chipfp", mapping, RunOptions(), "t")
        fingerprint_module._PROGRAM_TEXT.clear()
        fresh = [didt(sync=False) for _ in range(6)]
        assert run_fingerprint("chipfp", fresh, RunOptions(), "t") == first
        assert run_fingerprint("chipfp", mapping, RunOptions(), "t") == first

    def test_threads_sharing_the_memo_read_only_their_own_text(self):
        """Serve fingerprints on several threads at once: racing
        writers may compute a text twice, but no reader gets another
        program's text, and no entry outlives its program."""
        shared = [didt(i_high=20.0 + k) for k in range(8)]
        expected = {id(p): canonical(p) for p in shared}
        fingerprint_module._PROGRAM_TEXT.clear()
        wrong = []

        def worker(seed: int) -> None:
            for k in range(300):
                fresh = didt(i_high=40.0 + (seed * 300 + k) % 97)
                text = canonical([fresh, shared[k % 8]])
                if text != "[{},{}]".format(
                    _dataclass_text(fresh), expected[id(shared[k % 8])]
                ):
                    wrong.append(text)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(seed,))
                for seed in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        gc.collect()
        assert set(fingerprint_module._PROGRAM_TEXT) <= set(expected)
