"""Workload mapping optimization and guard-banding policy tests."""

import itertools

import pytest

from repro.analysis.guardband import GuardbandPolicy, build_policy, guardband_savings
from repro.analysis.mapping import enumerate_mappings, mapping_extremes
from repro.analysis.sensitivity import DeltaIMappingPoint
from repro.engine import SimulationSession
from repro.errors import ExperimentError, GuardbandProfileError
from repro.machine.runner import RunOptions
from repro.machine.workload import CurrentProgram, SyncSpec


def didt():
    return CurrentProgram(
        "m", i_low=14.0, i_high=32.0, freq_hz=2.6e6, rise_time=11e-9,
        sync=SyncSpec(),
    )


@pytest.fixture(scope="module")
def options():
    return RunOptions(segments=2, base_samples=1024)


@pytest.fixture(scope="module")
def session(chip, options):
    return SimulationSession(chip, options)


class TestEnumerateMappings:
    def test_counts_combinations(self, chip, session):
        study = enumerate_mappings(chip, didt(), 2).run(session)
        assert len(study.outcomes) == 15  # C(6,2)
        assert {len(o.cores) for o in study.outcomes} == {2}

    def test_best_no_worse_than_worst(self, chip, session):
        study = enumerate_mappings(chip, didt(), 3).run(session)
        assert study.best.worst_noise <= study.worst.worst_noise
        assert study.reduction_opportunity >= 0.0

    def test_same_cluster_is_worst_for_three(self, options):
        """Figure 14's effect: packing three stressmarks into one row
        is worse than spreading them across the rows.  Uses a chip with
        equalized skitter sensitivities so the comparison isolates the
        PDN clustering (not per-core process variation)."""
        from repro.machine.chip import reference_chip
        from repro.machine.runner import ChipRunner
        from repro.machine.workload import idle_program

        uniform = reference_chip()
        for macro in uniform.skitters:
            macro.sensitivity = 1.0
        runner = ChipRunner(uniform)
        idle = idle_program(13.5)

        def worst(cores):
            mapping = [didt() if c in cores else idle for c in range(6)]
            result = runner.run(mapping, options, run_tag=("row", cores))
            return max(
                result.measurements[c].droop for c in range(6)
            )

        same_row = worst((0, 2, 4))
        cross_row = worst((0, 1, 3))
        assert same_row > cross_row

    def test_zero_workloads(self, chip, session):
        study = enumerate_mappings(chip, didt(), 0).run(session)
        assert len(study.outcomes) == 1
        assert study.reduction_opportunity == 0.0

    def test_invalid_count_rejected(self, chip):
        with pytest.raises(ExperimentError):
            enumerate_mappings(chip, didt(), 7)

    def test_extremes_driver(self, chip, session):
        studies = mapping_extremes(chip, didt(), [0, 6]).run(session)
        assert set(studies) == {0, 6}
        assert studies[6].reduction_opportunity == 0.0  # no freedom


class TestGuardbandPolicy:
    def make_points(self):
        points = []
        noise_by_cores = {0: 2.0, 1: 12.0, 2: 22.0, 3: 30.0, 4: 38.0, 5: 45.0, 6: 52.0}
        for cores, noise in noise_by_cores.items():
            points.append(
                DeltaIMappingPoint(
                    mapping_id=cores,
                    placement=("max",) * cores + ("idle",) * (6 - cores),
                    distribution=(cores, 0),
                    delta_i_pct=100.0 * cores / 6,
                    p2p_by_core=[noise] * 6,
                    active_cores=cores,
                )
            )
        return points

    def test_policy_monotone_in_core_count(self):
        policy = build_policy(self.make_points())
        margins = [policy.margin_for(k) for k in range(7)]
        assert margins == sorted(margins)

    def test_static_margin_is_full_load(self):
        policy = build_policy(self.make_points())
        assert policy.static_margin == policy.margin_for(6)

    def test_voltage_scale_below_one_when_underutilized(self):
        policy = build_policy(self.make_points())
        assert policy.voltage_scale(1) < 1.0
        assert policy.voltage_scale(6) == pytest.approx(1.0)

    def test_power_scale_is_square_law(self):
        policy = build_policy(self.make_points())
        v = policy.voltage_scale(2)
        assert policy.power_scale(2) == pytest.approx(v * v)

    def test_savings_zero_at_full_utilization(self):
        policy = build_policy(self.make_points())
        profile = {5: 0.0, 6: 1.0}  # all time at full load
        assert guardband_savings(policy, profile) == pytest.approx(0.0)

    def test_empty_profile_raises_named_error(self):
        policy = build_policy(self.make_points())
        with pytest.raises(GuardbandProfileError):
            guardband_savings(policy, {})

    def test_single_entry_profile_raises_named_error(self):
        policy = build_policy(self.make_points())
        with pytest.raises(GuardbandProfileError):
            guardband_savings(policy, {6: 1.0})

    def test_negative_share_raises_named_error(self):
        policy = build_policy(self.make_points())
        with pytest.raises(GuardbandProfileError):
            guardband_savings(policy, {1: -0.5, 6: 1.5})

    def test_profile_error_is_an_experiment_error(self):
        # Callers catching the historical ExperimentError keep working.
        assert issubclass(GuardbandProfileError, ExperimentError)

    def test_savings_grow_with_idleness(self):
        policy = build_policy(self.make_points())
        light = guardband_savings(policy, {1: 0.8, 6: 0.2})
        heavy = guardband_savings(policy, {5: 0.8, 6: 0.2})
        assert light > heavy > 0.0

    def test_profile_must_sum_to_one(self):
        policy = build_policy(self.make_points())
        with pytest.raises(ExperimentError):
            guardband_savings(policy, {1: 0.5})

    def test_unknown_core_count_rejected(self):
        policy = build_policy(self.make_points())
        with pytest.raises(ExperimentError):
            policy.margin_for(9)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ExperimentError):
            build_policy([])
