"""The six-core chip model: PDN, skitters, variation.

A :class:`Chip` owns one concrete instance of the evaluation silicon:
the calibrated PDN with this chip's process-variation scales applied,
one skitter macro per core (plus MCU/GX/nest macros for completeness,
as on the real die), and the TOD facility.  The expensive solver
artifacts (state space, modal decomposition, response library, and the
compiled kernel every run solves through) are built lazily and cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from ..errors import ConfigError
from ..measure.skitter import SkitterConfig, SkitterMacro
from ..pdn.kernels import CompiledChipKernel, compile_kernel
from ..pdn.netlist import Netlist
from ..pdn.response import ResponseLibrary
from ..pdn.state_space import ModalSystem, build_state_space
from ..pdn.topology import (
    ChipPdnParameters,
    build_chip_netlist,
    core_node,
    core_port,
    row_cores,
)
from ..pdn.zec12 import reference_chip_parameters
from ..uarch.resources import CoreConfig, default_core_config
from .tod import TodClock
from .variation import CoreVariation, draw_variation

__all__ = ["ChipConfig", "Chip", "reference_chip", "N_CORES"]

#: Core count of the *reference* chip (family variants carry their own
#: count in ``ChipConfig.pdn.n_cores`` / ``Chip.n_cores``).
N_CORES = 6


@dataclass
class ChipConfig:
    """Everything needed to instantiate a chip.

    Attributes
    ----------
    pdn:
        PDN element values (pre-variation).
    core:
        Core microarchitecture configuration.
    skitter:
        Skitter macro configuration.
    seed:
        Root seed for process variation and measurement noise.
    ssn_window:
        Coherence window of the simultaneous-switching jitter term (s).
    ssn_row_weight, ssn_cross_weight:
        Cross-core coupling weights of coherent ΔI within the same core
        row and across rows.
    """

    pdn: ChipPdnParameters = field(default_factory=reference_chip_parameters)
    core: CoreConfig = field(default_factory=default_core_config)
    skitter: SkitterConfig = field(default_factory=SkitterConfig)
    seed: int = 17
    ssn_window: float = 30e-9
    ssn_row_weight: float = 0.85
    ssn_cross_weight: float = 0.75

    def __post_init__(self) -> None:
        if self.ssn_window <= 0:
            raise ConfigError("ssn_window must be positive")
        if not 0 <= self.ssn_cross_weight <= self.ssn_row_weight <= 1:
            raise ConfigError(
                "expected 0 <= cross weight <= row weight <= 1 "
                "(the L3 damps cross-row coupling)"
            )


class Chip:
    """One chip instance with its variation applied."""

    def __init__(self, config: ChipConfig, chip_id: int = 0):
        self.config = config
        self.chip_id = chip_id
        self.n_cores = config.pdn.n_cores
        self.variation: CoreVariation = draw_variation(
            config.seed, chip_id, n_cores=self.n_cores
        )
        self.pdn_params = config.pdn.with_variation(
            self.variation.r_scale, self.variation.c_scale
        )
        self.tod = TodClock()
        self.skitters = [
            SkitterMacro(
                config.skitter,
                location=f"core{i}",
                sensitivity=self.variation.skitter_sensitivity[i],
            )
            for i in range(self.n_cores)
        ]
        self.unit_skitters = {
            name: SkitterMacro(config.skitter, location=name)
            for name in ("mcu", "gx", "l3")
        }

    # -- identity -------------------------------------------------------
    @property
    def vnom(self) -> float:
        """Nominal supply voltage (V)."""
        return self.pdn_params.vnom

    @property
    def core_nodes(self) -> list[str]:
        return [core_node(i) for i in range(self.n_cores)]

    @property
    def core_ports(self) -> list[str]:
        return [core_port(i) for i in range(self.n_cores)]

    def row_of(self, core: int) -> str:
        """'north' or 'south' — which domain row the core sits in."""
        north, south = row_cores(self.n_cores)
        if core in north:
            return "north"
        if core in south:
            return "south"
        raise ConfigError(f"no core {core} on this chip")

    def coupling_weight(self, observer: int, source: int) -> float:
        """SSN coupling weight from *source* core activity to the
        *observer* core's skitter."""
        if observer == source:
            return 1.0
        if self.row_of(observer) == self.row_of(source):
            return self.config.ssn_row_weight
        return self.config.ssn_cross_weight

    @cached_property
    def coupling_matrix(self) -> np.ndarray:
        """Read-only (observer × source) matrix of
        :meth:`coupling_weight` over every core pair."""
        weights = np.array([
            [self.coupling_weight(observer, source)
             for source in range(self.n_cores)]
            for observer in range(self.n_cores)
        ])
        weights.flags.writeable = False
        return weights

    # -- cached solver artifacts -----------------------------------------
    @cached_property
    def netlist(self) -> Netlist:
        return build_chip_netlist(self.pdn_params)

    @cached_property
    def modal(self) -> ModalSystem:
        return ModalSystem(build_state_space(self.netlist))

    @cached_property
    def response_library(self) -> ResponseLibrary:
        return ResponseLibrary(
            self.netlist,
            ports=self.core_ports,
            nodes=self.core_nodes + ["dom_n", "dom_s", "l3"],
            rise_time=self.config.core.ramp_time,
            modal=self.modal,
        )

    @cached_property
    def compiled_kernel(self) -> CompiledChipKernel:
        """The chip's solve kernel (memoized weakly by content
        fingerprint, so identical live chips share one compiled
        artifact, and the kernel lives as long as a chip holds it).
        Raises :class:`~repro.errors.SolverError`, naming the failed
        check, if the chip's spectrum does not compile — there is no
        other solve path to fall back to."""
        return compile_kernel(self.response_library)

    def reset_skitters(self) -> None:
        """Clear all sticky skitter state (between experiments)."""
        for macro in self.skitters:
            macro.reset()
        for macro in self.unit_skitters.values():
            macro.reset()

    def with_pdn(self, pdn: ChipPdnParameters) -> "Chip":
        """A new chip instance with different PDN parameters (same seed,
        same variation draw) — used by the ablation benches."""
        return Chip(replace(self.config, pdn=pdn), self.chip_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Chip(id={self.chip_id}, seed={self.config.seed})"


def reference_chip(chip_id: int = 0, seed: int = 17) -> Chip:
    """The calibrated reference chip instance used by the experiments."""
    return Chip(ChipConfig(seed=seed), chip_id=chip_id)
