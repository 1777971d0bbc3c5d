"""Mitigation mechanism tests: scheduler, staggering, guard-band
controller, global ΔI throttle."""

import numpy as np
import pytest

from repro.analysis.guardband import build_policy
from repro.analysis.sensitivity import DeltaIMappingPoint
from repro.errors import ExperimentError
from repro.machine.runner import RunOptions
from repro.machine.workload import CurrentProgram, SyncSpec, idle_program
from repro.mitigation.guardband import GuardbandController
from repro.mitigation.scheduler import NoiseAwareScheduler
from repro.mitigation.staggering import evaluate_stagger, plan_stagger
from repro.mitigation.throttle import GlobalDidtThrottle
from repro.workloads.traces import UtilizationTrace


def didt(sync=True):
    return CurrentProgram(
        "m", i_low=14.0, i_high=32.0, freq_hz=2.6e6, rise_time=11e-9,
        sync=SyncSpec() if sync else None,
    )


@pytest.fixture(scope="module")
def options():
    return RunOptions(segments=2, base_samples=1024)


class TestScheduler:
    @pytest.fixture(scope="class")
    def scheduler(self, chip, options):
        return NoiseAwareScheduler(chip, didt(), options)

    def test_placement_beats_adversary(self, scheduler):
        placement = scheduler.place(3)
        assert placement.worst_noise <= placement.worst_alternative
        assert placement.noise_saved >= 0.0
        assert len(placement.cores) == 3

    def test_margin_saved_conversion(self, scheduler):
        placement = scheduler.place(3)
        assert scheduler.margin_saved(3) == pytest.approx(
            placement.noise_saved * scheduler.volts_per_p2p_point
        )

    def test_studies_replay_from_engine_cache(self, scheduler):
        first = scheduler.study(2)
        executed = scheduler.session.telemetry.counter("engine.runs_executed")
        second = scheduler.study(2)
        # The study is rebuilt but no placement is re-solved.
        assert (
            scheduler.session.telemetry.counter("engine.runs_executed")
            == executed
        )
        assert [o.p2p_by_core for o in first.outcomes] == [
            o.p2p_by_core for o in second.outcomes
        ]

    def test_opportunity_profile_shape(self, scheduler):
        # The Figure 15 series is zero at both ends: with no workload or
        # every core busy there is one mapping, so nothing to choose.
        assert scheduler.study(0).reduction_opportunity == 0.0
        assert scheduler.study(6).reduction_opportunity == 0.0

    def test_invalid_count(self, scheduler):
        with pytest.raises(ExperimentError):
            scheduler.place(9)


class TestStaggering:
    def test_plan_targets_synced_cores_only(self):
        mapping = [didt(sync=True)] * 3 + [didt(sync=False)] + [None] * 2
        plan = plan_stagger(mapping)
        assert plan.staggered_cores == (0, 1, 2)
        assert plan.offsets[3] == 0.0
        assert plan.offsets[4] == 0.0

    def test_offsets_spread_over_window(self):
        plan = plan_stagger([didt()] * 6, window_steps=5)
        assert len(set(plan.offsets)) > 1
        assert max(plan.offsets) <= plan.window

    def test_apply_preserves_everything_but_offsets(self):
        mapping = [didt()] * 6
        plan = plan_stagger(mapping)
        adjusted = plan.apply(mapping)
        for original, new in zip(mapping, adjusted):
            assert new.i_high == original.i_high
            assert new.freq_hz == original.freq_hz
        offsets = [p.sync.offset for p in adjusted]
        assert offsets == list(plan.offsets)

    def test_stagger_reduces_worst_case_noise(self, chip, options):
        outcome = evaluate_stagger(chip, [didt()] * 6, options=options)
        assert outcome.staggered.max_p2p <= outcome.baseline.max_p2p
        assert outcome.noise_reduction >= 0.0
        assert outcome.reduction_factor >= 1.0

    def test_nothing_to_stagger(self, chip, options):
        idle = idle_program(13.5)
        plan = plan_stagger([idle] * 6)
        assert plan.staggered_cores == ()

    def test_guards(self):
        with pytest.raises(ExperimentError):
            plan_stagger([didt()] * 5)
        with pytest.raises(ExperimentError):
            plan_stagger([didt()] * 6, window_steps=0)


def make_policy():
    points = []
    for cores, noise in {0: 2.0, 1: 12.0, 2: 22.0, 3: 30.0,
                         4: 38.0, 5: 45.0, 6: 52.0}.items():
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
    return build_policy(points)


class TestGuardbandController:
    @pytest.fixture(scope="class")
    def controller(self, chip):
        return GuardbandController(chip, make_policy())

    def test_bias_monotone_in_active_cores(self, controller):
        biases = [controller.bias_for(k) for k in range(7)]
        assert biases == sorted(biases)
        assert biases[6] == 1.0

    def test_never_under_provisions(self, controller):
        trace = UtilizationTrace(
            counts=np.array([0, 1, 2, 3, 4, 5, 6, 3, 1]), interval_s=60.0
        )
        run = controller.run(trace)
        assert run.min_headroom >= 0.0

    def test_savings_positive_when_idle(self, controller):
        idle_trace = UtilizationTrace(counts=np.array([1] * 10), interval_s=60.0)
        busy_trace = UtilizationTrace(counts=np.array([6] * 10), interval_s=60.0)
        assert controller.run(idle_trace).energy_saving > 0.0
        assert controller.run(busy_trace).energy_saving == pytest.approx(0.0)

    def test_transition_accounting(self, controller):
        trace = UtilizationTrace(counts=np.array([1, 6, 1, 6]), interval_s=60.0)
        run = controller.run(trace)
        assert run.transitions == 3

    def test_trace_beyond_schedule_rejected(self, chip):
        policy = make_policy()
        del policy.margin_by_active_cores[6]
        controller = GuardbandController(chip, policy)
        trace = UtilizationTrace(counts=np.array([6]), interval_s=60.0)
        with pytest.raises(ExperimentError):
            controller.run(trace)


class TestThrottle:
    def test_monitor_bound_scales_with_cores(self, chip):
        throttle = GlobalDidtThrottle(chip, budget_amps=50.0)
        two = throttle.worst_coherent_delta_i([didt()] * 2 + [None] * 4)
        six = throttle.worst_coherent_delta_i([didt()] * 6)
        assert six > two > 0.0

    def test_within_budget_means_no_derate(self, chip):
        throttle = GlobalDidtThrottle(chip, budget_amps=1e6)
        assert throttle.required_derate([didt()] * 6) == 1.0

    def test_derate_meets_budget(self, chip):
        throttle = GlobalDidtThrottle(chip, budget_amps=40.0)
        mapping = [didt()] * 6
        derate = throttle.required_derate(mapping)
        assert 0.0 < derate < 1.0
        throttled = throttle.apply(mapping, derate)
        assert throttle.worst_coherent_delta_i(throttled) == pytest.approx(
            40.0, rel=1e-6
        )

    def test_evaluation_trades_noise_for_throughput(self, chip, options):
        throttle = GlobalDidtThrottle(chip, budget_amps=40.0)
        outcome = throttle.evaluate([didt()] * 6, options)
        assert outcome.noise_reduction > 0.0
        assert 0.0 < outcome.throughput_cost < 0.5

    def test_guards(self, chip):
        with pytest.raises(ExperimentError):
            GlobalDidtThrottle(chip, budget_amps=0.0)
        throttle = GlobalDidtThrottle(chip, budget_amps=10.0)
        with pytest.raises(ExperimentError):
            throttle.apply([didt()] * 6, derate=0.0)
        with pytest.raises(ExperimentError):
            throttle.worst_coherent_delta_i([didt()] * 5)
