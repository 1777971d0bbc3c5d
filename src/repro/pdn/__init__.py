"""Power distribution network (PDN) simulation substrate.

The paper characterizes voltage noise on real silicon; this package
replaces the physical chip/package/board power delivery path with a
lumped-element RLC network (Figure 2 of the paper) that is solved two
ways:

* exactly, via a state-space/modal decomposition (:mod:`.state_space`),
  which powers fast step-response evaluation and frequency-domain
  impedance profiles;
* by precompiled per-chip kernels (:mod:`.kernels`), which factor the
  superposition of precomputed ramp responses over current edge trains
  (:mod:`.superposition`) into modal prefix sums so a run's segments
  amortize to a single stacked solve — the one solver every production
  run uses.

Two oracles check that solver in the test suite and the solver
benchmarks, and ship with the tests, not here (``tests/oracles/``):
per-edge linear superposition of the ramp responses and a trapezoidal
modified-nodal-analysis transient engine.

:mod:`.topology` builds the multi-core chip network of the paper's
evaluation platform (two on-chip voltage domains, six cores, the large
deep-trench L3 node between the core rows, MCU/GX units) and
:mod:`.zec12` holds the calibrated reference parameters that reproduce
the paper's resonant bands (~40 kHz and ~2 MHz) and cluster structure.
"""

from .elements import Capacitor, CurrentPort, Inductor, Resistor, VoltagePort
from .netlist import Netlist
from .state_space import StateSpace, build_state_space
from .impedance import ImpedanceProfile, impedance_profile, find_resonances
from .response import ResponseLibrary
from .superposition import EdgeTrain, edges_from_square_wave
from .kernels import (
    KERNEL_TOLERANCE_V,
    CompiledChipKernel,
    SampleGrid,
    clear_kernel_cache,
    compile_kernel,
    library_fingerprint,
)
from .topology import ChipPdnParameters, build_chip_netlist, core_node, core_port
from .zec12 import reference_chip_parameters

__all__ = [
    "Capacitor",
    "CurrentPort",
    "Inductor",
    "Resistor",
    "VoltagePort",
    "Netlist",
    "StateSpace",
    "build_state_space",
    "ImpedanceProfile",
    "impedance_profile",
    "find_resonances",
    "ResponseLibrary",
    "CompiledChipKernel",
    "SampleGrid",
    "compile_kernel",
    "clear_kernel_cache",
    "library_fingerprint",
    "KERNEL_TOLERANCE_V",
    "EdgeTrain",
    "edges_from_square_wave",
    "ChipPdnParameters",
    "build_chip_netlist",
    "core_node",
    "core_port",
    "reference_chip_parameters",
]
