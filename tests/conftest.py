"""Shared fixtures.

Expensive artifacts (the bound target with its energy model, the
reference chip with its modal decomposition, the stressmark generator
with its EPI profile and search result) are session scoped: the suite
builds each of them once.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core.generator import StressmarkGenerator
from repro.engine import ResultCache
from repro.engine import cache as cache_module
from repro.faults.harness import reset_fault_memo
from repro.machine.chip import reference_chip
from repro.machine.runner import RunOptions
from repro.mbench.target import default_target
from repro.obs import Telemetry
from repro.obs import metrics as metrics_module
from repro.pdn.netlist import Netlist
from repro.pdn.topology import build_chip_netlist
from repro.pdn.zec12 import reference_chip_parameters


@pytest.fixture(scope="session")
def target():
    """The bound reference target (ISA + core + energy model)."""
    bound = default_target()
    bound.energy_model  # force the lazy build once
    return bound


@pytest.fixture(scope="session")
def isa(target):
    return target.isa


@pytest.fixture(scope="session")
def core_config(target):
    return target.core


@pytest.fixture(scope="session")
def generator(target):
    """Stressmark generator with reduced EPI loop length (ranking is
    unaffected; see core/epi docstring)."""
    gen = StressmarkGenerator(target=target, epi_repetitions=60, ipc_keep=150)
    return gen


@pytest.fixture(scope="session")
def chip():
    """The reference chip (modal decomposition + response library are
    built lazily on first use and cached)."""
    return reference_chip()


@pytest.fixture(scope="session")
def chip_netlist():
    return build_chip_netlist(reference_chip_parameters())


@pytest.fixture()
def light_options():
    """Cheap runner options for per-test runs."""
    return RunOptions(segments=2, base_samples=1024)


@pytest.fixture(scope="session")
def session_options():
    """Moderate runner options for session-cached measurement sets."""
    return RunOptions(segments=4, base_samples=2048)


@pytest.fixture(scope="session")
def max_stressmark(generator):
    """The resonant synchronized max dI/dt stressmark, compiled."""
    return generator.max_didt(freq_hz=2.6e6, synchronize=True)


@pytest.fixture()
def cli(monkeypatch, capsys):
    """``repro.cli.main`` in this process, on a fresh process-wide
    result cache and telemetry, serially and without injected faults;
    returns ``(status, stdout, stderr)``.  What the CLI exports to the
    environment is restored afterwards (set a variable with
    ``monkeypatch.setenv`` before a flag that exports it)."""
    reset_fault_memo()
    monkeypatch.setattr(metrics_module, "_GLOBAL", Telemetry())
    monkeypatch.setattr(cache_module, "_GLOBAL", ResultCache())
    monkeypatch.setenv("REPRO_JOBS", "1")
    monkeypatch.delenv("REPRO_FAULTS", raising=False)

    def run(*argv):
        status = main([str(arg) for arg in argv])
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    return run


@pytest.fixture()
def driver_calls(monkeypatch):
    """Experiment ids, one per call of a driver that the CLI got
    through ``repro.cli.get_experiment`` (the binding perfbench's
    tracer wraps)."""
    import repro.cli

    calls: list[str] = []
    lookup = repro.cli.get_experiment

    def recording(experiment_id):
        driver = lookup(experiment_id)

        def run(context):
            calls.append(experiment_id)
            return driver(context)

        return run

    monkeypatch.setattr(repro.cli, "get_experiment", recording)
    return calls


def rc_netlist(r: float = 1.0, c: float = 1e-6, esr: float = 1e-3) -> Netlist:
    """A minimal source→R→node(C) network used by several PDN tests."""
    net = Netlist("rc")
    net.add_voltage_port("vin", "src")
    net.add_resistor("r1", "src", "out", r)
    net.add_capacitor("c1", "out", c, esr=esr)
    net.add_current_port("load", "out")
    net.validate()
    return net
