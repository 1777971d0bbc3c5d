"""Tests for unit helpers and formatting."""

import math

import pytest

from repro.units import (
    GHZ,
    KHZ,
    MHZ,
    MS,
    NS,
    PS,
    US,
    format_freq,
    format_si,
    format_time,
)


class TestMultipliers:
    def test_frequency_multipliers(self):
        assert KHZ == 1e3
        assert MHZ == 1e6
        assert GHZ == 1e9

    def test_time_multipliers_are_consistent(self):
        assert PS * 1e3 == pytest.approx(NS)
        assert NS * 1e3 == pytest.approx(US)
        assert US * 1e3 == pytest.approx(MS)

    def test_paper_quantities(self):
        # The paper's key constants render exactly.
        assert 62.5 * NS == pytest.approx(62.5e-9)
        assert 4 * MS == pytest.approx(4e-3)
        assert 2 * MHZ == 2e6


class TestFormatSi:
    def test_mega_range(self):
        assert format_si(2.5e6, "Hz") == "2.5MHz"

    def test_kilo_range(self):
        assert format_si(40e3, "Hz") == "40kHz"

    def test_unit_range(self):
        assert format_si(5.0, "V") == "5V"

    def test_milli_range(self):
        assert format_si(1.5e-3, "Ohm") == "1.5mOhm"
        assert format_si(0.75e-3, "Ohm") == "750uOhm"

    def test_nano_and_pico(self):
        assert format_si(62.5e-9, "s") == "62.5ns"
        assert format_si(70e-12, "H") == "70pH"

    def test_zero_and_nonfinite(self):
        assert format_si(0, "Hz") == "0Hz"
        assert format_si(math.inf, "Hz") == "infHz"

    def test_negative_value(self):
        assert format_si(-3e-3, "V") == "-3mV"

    def test_rounding_digits(self):
        assert format_si(1.23456e6, "Hz", digits=2) == "1.23MHz"


class TestFreqTimeShortcuts:
    def test_format_freq(self):
        assert format_freq(2.6e6) == "2.6MHz"

    def test_format_time(self):
        assert format_time(4e-3) == "4ms"
