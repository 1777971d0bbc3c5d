"""Core microarchitecture model of the evaluation platform.

Models the aspects of a mainframe-class super-scalar out-of-order core
that the stressmark methodology depends on:

* **dispatch grouping** (:mod:`.grouping`) — instructions dispatch in
  groups of up to three; branches end their group; cracked/complex
  instructions dispatch alone; at most two memory operations per group.
  The paper's microarchitectural filtering stage is built on these
  rules ("sequences known to not have an average dispatch group size of
  3 are filtered out").
* **steady-state loop throughput** (:mod:`.throughput`) — an analytic
  model of µops-per-cycle for an endless loop body, limited by dispatch
  groups, per-unit capacity (including non-pipelined dividers) and
  serializing instructions.  A cycle-level pipeline simulator, its
  test oracle, ships with the tests (``tests/oracles/pipeline.py``).
* **the energy/power model** (:mod:`.energy`, :mod:`.power`) —
  per-µop energies are derived from the ISA's relative power weights so
  that a measured single-instruction loop reproduces the Table I
  ranking, and arbitrary sequences get physically sensible powers
  (multi-unit sequences exceed any single instruction's power, which is
  why the paper's max-power search over combinations pays off).
"""

from .resources import CoreConfig, default_core_config
from .grouping import form_groups
from .throughput import LoopProfile, analyze_loop
from .energy import EnergyModel
from .power import PowerEstimate, estimate_loop_power

__all__ = [
    "CoreConfig",
    "default_core_config",
    "form_groups",
    "LoopProfile",
    "analyze_loop",
    "EnergyModel",
    "PowerEstimate",
    "estimate_loop_power",
]
