"""Study drivers: gain sweep and attack-surface heatmap, plus the
three-path identity of a sweep point against a hand-driven loop."""

from __future__ import annotations

import pytest

from repro.control.controllers import IntegralPowerController
from repro.control.loop import ClosedLoopRun
from repro.control.study import (
    CONTROL_RUN_TAG,
    attack_surface,
    control_baseline,
    gain_sweep,
)
from repro.engine import SimulationSession
from repro.engine.cache import ResultCache
from repro.engine.stepping import SteppingSession
from repro.measure.runit import RUnit, RUnitConfig


@pytest.fixture(scope="module")
def baseline(chip, loop_mapping, loop_options):
    session = SimulationSession(
        chip, loop_options, cache=ResultCache(cache_dir=None)
    )
    return control_baseline(loop_mapping).run(session)


@pytest.fixture(scope="module")
def sweep(chip, loop_mapping, loop_options, baseline):
    return gain_sweep(
        chip,
        loop_mapping,
        loop_options,
        gains=(0.05, 0.5),
        windows_per_segment=4,
        baseline=baseline,
    )


class TestGainSweep:
    def test_structure_and_equivalence(self, sweep):
        assert sweep["study"] == "gain_sweep"
        assert sweep["run_tag"] == CONTROL_RUN_TAG
        assert sweep["stepping_equivalent"] is True
        assert [p["gain"] for p in sweep["points"]] == [0.05, 0.5]
        for point in sweep["points"]:
            assert point["windows"] == sweep["windows"]
            assert point["controller"]["kind"] == "integral"

    def test_higher_gain_moves_bias_at_least_as_fast(self, sweep):
        slow, fast = sweep["points"]
        assert fast["settling_window"] <= slow["settling_window"]
        assert fast["min_bias"] <= slow["min_bias"]

    def test_point_matches_hand_driven_loop(
        self, chip, loop_mapping, loop_options, sweep
    ):
        """Three-path identity: driving the loop by hand must reproduce
        the study's sweep point exactly (the serve path is pinned the
        same way in tests/serve)."""
        stepping = SteppingSession(
            chip,
            loop_mapping,
            loop_options,
            run_tag=CONTROL_RUN_TAG,
            windows_per_segment=4,
        )
        loop = ClosedLoopRun(
            stepping,
            IntegralPowerController(chip.vnom, setpoint=0.85, gain=0.5),
            runit=RUnit(RUnitConfig(), chip.vnom),
        )
        summary = loop.run()
        summary["gain"] = 0.5
        assert summary == sweep["points"][1]


class TestAttackSurface:
    @pytest.fixture(scope="class")
    def surface(self, chip, loop_mapping, loop_options, baseline):
        return attack_surface(
            chip,
            loop_mapping,
            loop_options,
            depths=(5, 30),
            durations=(1, 2),
            windows_per_segment=4,
            baseline=baseline,
        )

    def test_structure_and_equivalence(self, surface):
        assert surface["study"] == "attack_surface"
        assert surface["stepping_equivalent"] is True
        assert 0 <= surface["stress_window"] < surface["windows"]
        # 2 depths x 2 durations x up to 2 alignments.
        assert len(surface["cells"]) >= 4

    def test_deep_attack_violates_where_shallow_does_not(self, surface):
        by_depth = {}
        for cell in surface["cells"]:
            if cell["alignment"] == "aligned":
                by_depth.setdefault(cell["depth_steps"], 0)
                by_depth[cell["depth_steps"]] += cell["violations"]
        assert by_depth[30] > 0
        assert by_depth[30] >= by_depth[5]

    def test_frontier_reports_shallowest_violating_depth(self, surface):
        aligned = surface["frontier"]["aligned"]
        for duration, depth in aligned.items():
            if depth is None:
                continue
            hits = [
                c
                for c in surface["cells"]
                if c["alignment"] == "aligned"
                and c["duration_windows"] == int(duration)
                and c["violations"] > 0
            ]
            assert depth == min(c["depth_steps"] for c in hits)


def test_control_baseline_declares_one_tagged_run(
    chip, loop_mapping, loop_options
):
    plan = control_baseline(loop_mapping).plan(chip, loop_options)
    assert len(plan.runs) == 1
    assert plan.runs[0].tag == CONTROL_RUN_TAG
