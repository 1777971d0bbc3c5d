"""Unit helpers and formatting for electrical and timing quantities.

The library works internally in base SI units (seconds, hertz, volts,
amperes, ohms, henries, farads, watts).  These helpers exist so that
configuration code reads like the paper: ``2 * MHZ``, ``62.5 * NS``,
``48 * MB`` and so on, and so that reports can render values the way the
paper's figures label them (``2MHz``, ``62.5ns``).
"""

from __future__ import annotations

import math

__all__ = [
    "KHZ", "MHZ", "GHZ",
    "PS", "NS", "US", "MS",
    "MV", "MA", "MW",
    "PH", "NH", "UH",
    "PF", "NF", "UF", "MF",
    "MOHM", "UOHM",
    "KB", "MB",
    "format_si", "format_freq", "format_time",
]

# Frequency multipliers.
KHZ = 1e3
MHZ = 1e6
GHZ = 1e9

# Time multipliers.
PS = 1e-12
NS = 1e-9
US = 1e-6
MS = 1e-3

# Electrical multipliers.
MV = 1e-3      # millivolt
MA = 1e-3      # milliampere
MW = 1e-3      # milliwatt
PH = 1e-12     # picohenry
NH = 1e-9      # nanohenry
UH = 1e-6      # microhenry
PF = 1e-12     # picofarad
NF = 1e-9      # nanofarad
UF = 1e-6      # microfarad
MF = 1e-3      # millifarad
MOHM = 1e-3    # milliohm
UOHM = 1e-6    # microohm

# Capacity multipliers (bytes).
KB = 1024
MB = 1024 * 1024

_SI_PREFIXES = [
    (1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "k"),
    (1.0, ""), (1e-3, "m"), (1e-6, "u"), (1e-9, "n"), (1e-12, "p"),
    (1e-15, "f"),
]


def format_si(value: float, unit: str = "", digits: int = 3) -> str:
    """Render *value* with an SI prefix, e.g. ``format_si(2.5e6, 'Hz')``
    returns ``'2.5MHz'``.

    Zero, NaN and infinities are rendered without a prefix.
    """
    if value == 0 or not math.isfinite(value):
        return f"{value:g}{unit}"
    magnitude = abs(value)
    for scale, prefix in _SI_PREFIXES:
        if magnitude >= scale:
            scaled = value / scale
            return f"{round(scaled, digits):g}{prefix}{unit}"
    scale, prefix = _SI_PREFIXES[-1]
    return f"{round(value / scale, digits):g}{prefix}{unit}"


def format_freq(hz: float, digits: int = 3) -> str:
    """Format a frequency in the style the paper uses (``2MHz``,
    ``40kHz``)."""
    return format_si(hz, "Hz", digits)


def format_time(seconds: float, digits: int = 3) -> str:
    """Format a duration (``62.5ns``, ``4ms``)."""
    return format_si(seconds, "s", digits)
