"""The control studies as result-cache records.

``ctrl-gain`` and ``ctrl-attack`` read their study dicts through the
session's result cache, keyed by the baseline run's fingerprint and
the study's parameters.  A replay therefore builds no stepping
session, and every parameter, the chip and the run options are part
of the key.  The ``control`` verb keeps recomputing.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.chips import get_family
from repro.cli import main
from repro.control import study
from repro.control.study import CONTROL_RUN_TAG, DEFAULT_GAINS
from repro.engine import ResultCache, SimulationSession
from repro.engine import cache as cache_module
from repro.engine.fingerprint import content_key
from repro.experiments import ctrl, get_experiment
from repro.experiments.common import context_for_spec, quick_context
from repro.machine.chip import Chip
from repro.measure.runit import RUnitConfig
from repro.obs import Telemetry

EXPORTS = ["ctrl-gain.json", "ctrl-gain.txt", "ctrl-attack.json",
           "ctrl-attack.txt"]


@pytest.fixture()
def stepping_sessions(monkeypatch):
    """Every stepping session the studies build (spied where
    :mod:`repro.control.study` looks the class up)."""
    built = []
    real = study.SteppingSession

    def spy(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr("repro.control.study.SteppingSession", spy)
    return built


@pytest.fixture()
def solver_reads(monkeypatch):
    """Names of the chip's solver artifacts read, in order: each of
    ``Chip.response_library`` and ``Chip.compiled_kernel`` becomes a
    property that records the read, so a value already cached on the
    chip is still seen."""
    reads = []
    for name in ("response_library", "compiled_kernel"):
        cached = Chip.__dict__[name]

        def read(chip, name=name, cached=cached):
            reads.append(name)
            return cached.__get__(chip, Chip)

        monkeypatch.setattr(f"repro.machine.chip.Chip.{name}", property(read))
    return reads


@pytest.fixture()
def cli(monkeypatch, capsys):
    """``main()`` in this process on a fresh process-wide cache; the
    cache and the environment the CLI sets are restored afterwards."""
    monkeypatch.setattr(cache_module, "_GLOBAL", ResultCache())
    monkeypatch.setenv("REPRO_JOBS", "1")

    def run(*argv: str) -> str:
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    return run


class TestReplay:
    def test_replay_steps_nothing_and_exports_the_same_bytes(
        self, tmp_path, cli, stepping_sessions, solver_reads
    ):
        cache_dir = str(tmp_path / "cache")
        cli("--quick", "--cache-dir", cache_dir, "run", "ctrl-gain",
            "ctrl-attack", "--output", str(tmp_path / "cold"))
        assert len(stepping_sessions) == 2
        assert "compiled_kernel" in solver_reads

        del stepping_sessions[:], solver_reads[:]
        cli("--quick", "--cache-dir", cache_dir, "run", "ctrl-gain",
            "ctrl-attack", "--output", str(tmp_path / "replay"))
        assert stepping_sessions == []
        assert solver_reads == []
        for name in EXPORTS:
            cold = (tmp_path / "cold" / name).read_bytes()
            assert (tmp_path / "replay" / name).read_bytes() == cold, name
        for name in ("ctrl-gain.json", "ctrl-attack.json"):
            data = json.loads((tmp_path / "replay" / name).read_text())
            assert data["data"]["stepping_equivalent"] is True

    def test_control_verb_recomputes_over_a_populated_cache(
        self, tmp_path, cli, stepping_sessions
    ):
        cache_dir = str(tmp_path / "cache")
        cli("--quick", "--cache-dir", cache_dir, "run", "ctrl-gain")
        del stepping_sessions[:]
        out = cli("--quick", "--cache-dir", cache_dir, "control",
                  "gain-sweep", "--json")
        assert len(stepping_sessions) == 1
        assert json.loads(out)["stepping_equivalent"] is True


@pytest.fixture(scope="module")
def quick():
    return quick_context()


def private_context(context, cache: ResultCache):
    """*context* executing through a serial session over *cache*."""
    session = SimulationSession(
        context.chip, context.options, cache=cache, jobs=1,
        telemetry=cache.telemetry,
    )
    return replace(context, _session=session)


@pytest.fixture()
def studies(monkeypatch):
    """Calls of each study, by experiment id (spied at the module
    bindings the drivers call)."""
    calls = {"ctrl-gain": [], "ctrl-attack": []}
    for experiment_id, name in (
        ("ctrl-gain", "gain_sweep"),
        ("ctrl-attack", "attack_surface"),
    ):
        real = getattr(ctrl, name)

        def spy(*args, real=real, log=calls[experiment_id], **kwargs):
            log.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(ctrl, name, spy)
    return calls


@pytest.fixture(scope="module")
def populated(quick):
    """A private cache holding both studies' records at the registered
    parameters (and their baseline run), with each study's data."""
    cache = ResultCache(telemetry=Telemetry())
    context = private_context(quick, cache)
    data = {
        experiment_id: get_experiment(experiment_id)(context).data
        for experiment_id in ("ctrl-gain", "ctrl-attack")
    }
    return cache, data


GAIN = "GAIN_SWEEP_PARAMETERS"
ATTACK = "ATTACK_SURFACE_PARAMETERS"


@pytest.mark.parametrize(
    "experiment_id, table, change",
    [
        ("ctrl-gain", GAIN, {"gains": DEFAULT_GAINS[:-1] + (2.0,)}),
        ("ctrl-gain", GAIN, {"setpoint": 0.8}),
        ("ctrl-gain", GAIN, {"windows_per_segment": 4}),
        ("ctrl-gain", GAIN, {"runit_config": RUnitConfig(v_fail_frac=0.85)}),
        ("ctrl-attack", ATTACK, {"depths": (5, 35)}),
        ("ctrl-attack", ATTACK, {"durations": (1, 3)}),
        ("ctrl-attack", ATTACK, {"windows_per_segment": 4}),
        ("ctrl-attack", ATTACK,
         {"runit_config": RUnitConfig(v_fail_frac=0.85)}),
    ],
    ids=["gain", "setpoint", "gain-windows", "gain-runit", "depth",
         "duration", "attack-windows", "attack-runit"],
)
def test_a_changed_parameter_misses(
    quick, populated, studies, monkeypatch, experiment_id, table, change
):
    cache, data = populated
    context = private_context(quick, cache)
    driver = get_experiment(experiment_id)
    assert driver(context).data == data[experiment_id]
    assert studies[experiment_id] == []  # the registered record hits

    parameters = {**getattr(ctrl, table), **change}
    monkeypatch.setattr(ctrl, table, parameters)
    driver(context)
    (call,) = studies[experiment_id]
    assert {name: call[name] for name in parameters} == parameters
    driver(context)
    assert len(studies[experiment_id]) == 1  # ... and is then a record


def test_another_chip_misses(populated, studies):
    cache, data = populated
    cores4 = context_for_spec(get_family("quick").member("cores4"), quick=True)
    context = private_context(cores4, cache)
    for experiment_id in ("ctrl-gain", "ctrl-attack"):
        driver = get_experiment(experiment_id)
        result = driver(context)
        assert len(studies[experiment_id]) == 1
        assert result.data != data[experiment_id]
        assert driver(context).data == result.data
        assert len(studies[experiment_id]) == 1


def test_torn_record_is_quarantined_and_recomputed(quick, tmp_path, studies):
    telemetry = Telemetry()
    context = private_context(
        quick, ResultCache(cache_dir=tmp_path, telemetry=telemetry)
    )
    first = get_experiment("ctrl-gain")(context).data
    key = content_key(
        "control.gain_sweep",
        context.session.fingerprint(
            ctrl.control_mapping(context), CONTROL_RUN_TAG
        ),
        ctrl.GAIN_SWEEP_PARAMETERS,
    )
    record = tmp_path / key[:2] / f"{key}.pkl"
    assert record.is_file()
    record.write_bytes(record.read_bytes()[:40])

    fresh = private_context(
        quick, ResultCache(cache_dir=tmp_path, telemetry=telemetry)
    )
    assert get_experiment("ctrl-gain")(fresh).data == first
    assert len(studies["ctrl-gain"]) == 2
    assert telemetry.counter("engine.cache.quarantined") == 1
    assert (tmp_path / "quarantine" / record.name).is_file()
    assert ResultCache(cache_dir=tmp_path).get(key) == first
