"""Power meter and performance counter tests."""

import pytest

from repro.errors import MeasurementError
from repro.mbench.loops import build_epi_loop, build_sequence_loop
from repro.measure.counters import read_counters
from repro.measure.powermeter import PowerMeter


class TestPowerMeter:
    def test_reading_near_model_truth(self, target):
        meter = PowerMeter(target, noise_sigma=0.002, temperature_drift=0.0)
        program = build_sequence_loop(target.isa, (target.isa["CIB"],), unroll=24)
        truth = target.power(program).watts
        reading = meter.measure(program)
        assert reading == pytest.approx(truth, rel=0.01)

    def test_milliwatt_quantization(self, target):
        meter = PowerMeter(target)
        program = build_sequence_loop(target.isa, (target.isa["CIB"],), unroll=24)
        reading = meter.measure(program)
        assert reading == round(reading, 3)

    def test_repeat_readings_differ(self, target):
        meter = PowerMeter(target, noise_sigma=0.01, temperature_drift=0.0)
        program = build_sequence_loop(target.isa, (target.isa["CIB"],), unroll=24)
        a = meter.measure(program, reading_tag=0)
        b = meter.measure(program, reading_tag=1)
        assert a != b

    def test_average_tightens_noise(self, target):
        meter = PowerMeter(target, noise_sigma=0.01, temperature_drift=0.0)
        program = build_sequence_loop(target.isa, (target.isa["CIB"],), unroll=24)
        truth = target.power(program).watts
        readings = [meter.measure(program, reading_tag=tag) for tag in range(9)]
        assert sum(readings) / len(readings) == pytest.approx(truth, rel=0.01)

    def test_dwell_time_accounting(self, target):
        meter = PowerMeter(target, dwell_s=5.0)
        program = build_sequence_loop(target.isa, (target.isa["CIB"],), unroll=4)
        meter.measure(program)
        meter.measure(program, reading_tag=1)
        assert meter.simulated_seconds == 10.0

    def test_guards(self, target):
        with pytest.raises(MeasurementError):
            PowerMeter(target, noise_sigma=-0.1)
        with pytest.raises(MeasurementError):
            PowerMeter(target, dwell_s=0.0)


class TestCounters:
    def test_ipc_matches_model(self, target):
        program = build_epi_loop(target.isa, target.isa["CIB"], repetitions=60)
        reading = read_counters(program, target, jitter=0.0)
        profile = target.profile(program)
        assert reading.ipc == pytest.approx(profile.ipc, rel=0.01)

    def test_counters_scale_with_duration(self, target):
        program = build_epi_loop(target.isa, target.isa["CIB"], repetitions=60)
        short = read_counters(program, target, duration_s=1.0, jitter=0.0)
        long = read_counters(program, target, duration_s=2.0, jitter=0.0)
        assert long.instructions == pytest.approx(2 * short.instructions, rel=0.01)

    def test_group_size_reported(self, target):
        program = build_epi_loop(target.isa, target.isa["SRNM"], repetitions=10)
        reading = read_counters(program, target)
        assert reading.group_size_avg == pytest.approx(1.0)

    def test_bad_duration_rejected(self, target):
        program = build_epi_loop(target.isa, target.isa["CIB"], repetitions=10)
        with pytest.raises(MeasurementError):
            read_counters(program, target, duration_s=0.0)
