"""Microbenchmark generation framework (the paper's Microprobe role).

The paper generates its EPI profiles and dI/dt stressmarks with the
Microprobe micro-benchmark generator, configured through target
definition files.  This package plays that role for the synthetic
platform:

* :mod:`.program` — a small IR: the instruction definitions of an
  endless (or counted) loop.  Measurement reads only the definitions;
  operands are rendered, with register rotation to avoid dependences,
  only when the assembly is;
* :mod:`.loops` — loop builders, including the EPI skeleton (4000
  dependence-free repetitions of one instruction) and arbitrary
  sequence loops;
* :mod:`.codegen` — synthetic assembly emission, so generated
  benchmarks are inspectable artifacts, as they are in the paper's
  flow;
* :mod:`.target` — the target definition binding ISA, core model and
  energy model, plus evaluation helpers (run a program on the modeled
  core, get IPC and power).
"""

from .program import InstructionInstance, Program
from .loops import build_epi_loop, build_sequence_loop
from .codegen import emit_assembly
from .target import Target, default_target

__all__ = [
    "InstructionInstance",
    "Program",
    "build_epi_loop",
    "build_sequence_loop",
    "emit_assembly",
    "Target",
    "default_target",
]
