"""repro — reproduction of *Voltage Noise in Multi-core Processors:
Empirical Characterization and Optimization Opportunities* (MICRO 2014).

The library rebuilds, in simulation, the full system behind the paper's
measurement study:

* :mod:`repro.pdn` — lumped RLC power-delivery-network solvers
  (state-space/modal, impedance profiles, the compiled per-chip kernel
  that superposes ramp responses) and the calibrated six-core
  reference chip topology;
* :mod:`repro.isa` / :mod:`repro.uarch` — a synthetic 1301-instruction
  mainframe-class CISC ISA and the core model (dispatch groups,
  functional units, throughput and energy);
* :mod:`repro.mbench` — the Microprobe-role microbenchmark generator;
* :mod:`repro.machine` / :mod:`repro.measure` — the modeled machine
  (TOD facility, process variation, run engine) and its measurement
  substrates (skitter macros, power meter, counters, oscilloscope,
  R-Unit, Vmin protocol);
* :mod:`repro.core` — the paper's contribution: the white-box dI/dt
  stressmark generation methodology, plus a GA baseline;
* :mod:`repro.engine` / :mod:`repro.obs` — the shared run-session
  layer every sweep executes through: content-addressed result caching
  (in-memory + optional disk tier), parallel fan-out over worker
  processes, and structured observability (counters, histograms,
  spans, JSONL event traces);
* :mod:`repro.serve` — the always-on simulation service: a TCP/JSON-
  lines endpoint answering simulation requests through a hot reply
  tier, the engine cache and a warm session pool, with single-flight
  request coalescing and bounded-queue backpressure;
* :mod:`repro.analysis` / :mod:`repro.experiments` — sensitivity
  studies, propagation/correlation analyses, workload-mapping and
  guard-banding optimizations, and one driver per paper table/figure.

Quickstart::

    from repro import StressmarkGenerator, reference_chip, SimulationSession

    generator = StressmarkGenerator()
    mark = generator.max_didt(freq_hz=2e6, synchronize=True)
    session = SimulationSession(reference_chip())
    result = session.run([mark.current_program()] * 6)
    print(result.max_p2p)

Repeating the run (same chip, programs and options) replays it from the
session's content-addressed cache instead of re-solving the PDN.
"""

from .core.generator import StressmarkGenerator
from .core.stressmark import DidtStressmark, StressmarkSpec
from .engine import (
    ResultCache,
    SimulationSession,
    configure_cache,
    global_cache,
    make_executor,
)
from .machine.chip import Chip, ChipConfig, reference_chip
from .machine.runner import ChipRunner, RunOptions, RunResult
from .machine.workload import CurrentProgram, SyncSpec, idle_program
from .mbench.target import Target, default_target
from .obs import Telemetry, get_telemetry
from .errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "StressmarkGenerator",
    "DidtStressmark",
    "StressmarkSpec",
    "Chip",
    "ChipConfig",
    "reference_chip",
    "ChipRunner",
    "SimulationSession",
    "ResultCache",
    "global_cache",
    "configure_cache",
    "make_executor",
    "Telemetry",
    "get_telemetry",
    "RunOptions",
    "RunResult",
    "CurrentProgram",
    "SyncSpec",
    "idle_program",
    "Target",
    "default_target",
    "ReproError",
    "__version__",
]
