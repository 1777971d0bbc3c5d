"""Benchmark harness fixtures.

The benches here are the ablation and extension studies (DESIGN.md §3
A1-A8) and the solver oracles; the paper's tables and figures are
checked by the tier-1 reproduction contract (``tests/contract``).  The
full-fidelity context (EPI profile, max-power search, chip solver
artifacts) is built once per session.

Run with::

    pytest benchmarks/ --benchmark-only          # timed
    pytest benchmarks/ -q --benchmark-disable    # asserts only
"""

from __future__ import annotations

import pytest

from repro.experiments.common import default_context


@pytest.fixture(scope="session")
def ctx():
    return default_context()
