"""Session tests: cached execution, batching, the one solve path,
campaign-level reuse."""

import pickle
import weakref

import pytest

import repro.engine.session as session_module
from repro.engine import ResultCache, SimulationSession
from repro.errors import SolverError
from repro.machine.chip import Chip
from repro.machine.runner import RunOptions
from repro.machine.workload import idle_program
from repro.obs import EventLog, Telemetry, set_telemetry, validate_event_log

from .conftest import didt


class TestSingleRuns:
    def test_identical_runs_are_solved_once(self, session, telemetry):
        mapping = [didt()] * 6
        first = session.run(mapping)
        second = session.run(mapping)
        assert second is first
        assert telemetry.counter("engine.runs") == 2
        assert telemetry.counter("engine.runs_executed") == 1
        assert telemetry.counter("engine.cache.hits") == 1

    def test_deterministic_runs_shared_across_tags(self, session):
        mapping = [didt()] * 6
        assert session.run(mapping, run_tag="fig14") is session.run(
            mapping, run_tag="fig15"
        )

    def test_randomized_runs_distinct_per_tag(self, session, telemetry):
        mapping = [didt(sync=False)] * 6
        first = session.run(mapping, run_tag="a")
        second = session.run(mapping, run_tag="b")
        assert second is not first
        assert telemetry.counter("engine.runs_executed") == 2
        # …but the same tag replays.
        assert session.run(mapping, run_tag="a") is first

    def test_solver_call_accounting(self, session, telemetry):
        session.run([didt()] * 6)
        # A synchronized run solves one segment for both windows:
        # 1 segment × 6 observed cores.
        assert telemetry.counter("engine.solver_calls") == 6
        assert telemetry.timer("engine.run_seconds") > 0.0
        # A phase-randomized run solves each of its segments=2 windows.
        session.run([didt(sync=False)] * 6)
        assert telemetry.counter("engine.solver_calls") == 6 + 12

    def test_results_match_the_raw_runner(self, session):
        mapping = [didt()] * 3 + [idle_program(13.5)] * 3
        via_session = session.run(mapping)
        direct = session.runner.run(mapping, session.options, "whatever")
        assert via_session.p2p_by_core == direct.p2p_by_core


class TestBatchedRuns:
    def test_run_many_preserves_order_and_dedups(self, session, telemetry):
        distinct = [didt(i_high=30.0)] * 6
        mapping = [didt()] * 6
        results = session.run_many(
            [mapping, distinct, mapping], tags=["a", "b", "c"]
        )
        assert results[0] is results[2]
        assert results[1] is not results[0]
        assert telemetry.counter("engine.runs") == 3
        assert telemetry.counter("engine.runs_executed") == 2

    def test_run_many_reuses_single_run_entries(self, session, telemetry):
        mapping = [didt()] * 6
        single = session.run(mapping)
        executed = telemetry.counter("engine.runs_executed")
        (batched,) = session.run_many([mapping])
        assert batched is single
        assert telemetry.counter("engine.runs_executed") == executed

    def test_tag_length_mismatch_rejected(self, session):
        with pytest.raises(ValueError):
            session.run_many([[didt()] * 6], tags=["a", "b"])


class TestOneSolvePath:
    MAPPINGS = [
        [didt()] * 6,
        [didt(i_high=28.0)] * 6,
        [didt(sync=False)] * 6,
    ]

    def test_run_many_matches_the_raw_runner(self, session):
        """A multi-miss serial batch goes through the same guarded
        dispatch as a single run and returns exactly what the runner
        computes."""
        tags = ["a", "b", "c"]
        results = session.run_many(self.MAPPINGS, tags)
        for mapping, tag, result in zip(self.MAPPINGS, tags, results):
            direct = session.runner.run(mapping, session.options, tag)
            assert [
                (m.p2p_pct, m.v_min, m.v_max) for m in result.measurements
            ] == [(m.p2p_pct, m.v_min, m.v_max) for m in direct.measurements]

    def test_solver_accounting_per_run(self, session, telemetry):
        session.run_many(self.MAPPINGS)
        assert telemetry.counter("engine.solver.invocations") == len(
            self.MAPPINGS
        )
        assert telemetry.counter("engine.runs_executed") == len(self.MAPPINGS)
        histogram = telemetry.histogram("engine.run.seconds")
        assert histogram is not None and histogram.count == len(self.MAPPINGS)

    def test_in_process_runs_use_the_sessions_own_chip(
        self, chip, telemetry, monkeypatch
    ):
        """Each session runs on its own chip, even beside an identical
        live one, and in-process execution builds no chip."""
        twin = Chip(chip.config, chip.chip_id)
        sessions = [
            SimulationSession(
                each,
                RunOptions(segments=1, base_samples=256),
                cache=ResultCache(telemetry=telemetry),
                jobs=1,
                telemetry=telemetry,
            )
            for each in (chip, twin)
        ]
        used = []
        runner = session_module.ChipRunner

        def spy(each):
            used.append(each)
            return runner(each)

        def no_build(*args, **kwargs):
            raise AssertionError("in-process execution built a chip")

        monkeypatch.setattr(session_module, "ChipRunner", spy)
        monkeypatch.setattr(session_module, "Chip", no_build)
        for each in sessions:
            each.run([didt()] * 6)
        assert len(used) == 2
        assert used[0] is chip and used[1] is twin

    def test_pickled_run_item_leaves_the_chip_behind(
        self, session, monkeypatch
    ):
        """A pool worker gets the run callable without the chip; with no
        inherited chip it builds one and keeps it for its chunk."""
        item = session_module._RunItem(
            session.chip, session._chip_fp, session.options
        )
        clone = pickle.loads(pickle.dumps(item))
        assert item.chip is session.chip and clone.chip is None
        monkeypatch.setattr(
            session_module, "_WORKER_CHIPS", weakref.WeakValueDictionary()
        )
        mapping = [didt()] * 6
        result = clone(("fp", mapping, "a"))
        built = clone.chip
        assert built is not None and built is not session.chip
        clone(("fp", [didt(i_high=28.0)] * 6, "b"))
        assert clone.chip is built
        assert result.p2p_by_core == item(("fp", mapping, "a")).p2p_by_core

    def test_compile_failure_raises(self, session, telemetry, monkeypatch):
        """A chip whose kernel does not compile fails the run with the
        kernel's own error; nothing is solved another way."""

        def boom(self):
            raise SolverError("injected kernel compile failure")

        monkeypatch.delitem(
            session.chip.__dict__, "compiled_kernel", raising=False
        )
        monkeypatch.setattr(Chip, "compiled_kernel", property(boom))
        with pytest.raises(SolverError, match="injected"):
            session.run([didt()] * 6)
        assert telemetry.counter("engine.runs_executed") == 0

    def test_traced_serial_run_many_writes_a_valid_event_log(
        self, chip, tmp_path
    ):
        """Every event a traced serial multi-miss batch emits is a
        known event type."""
        telemetry = Telemetry()
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            telemetry.enable_tracing(events=log)
            SimulationSession(
                chip,
                RunOptions(segments=1, base_samples=512),
                cache=ResultCache(telemetry=telemetry),
                jobs=1,
                faults=None,
                telemetry=telemetry,
            ).run_many(self.MAPPINGS[:2])
        n_valid, errors = validate_event_log(path)
        assert errors == []
        assert n_valid > 0


class TestDerivedSessions:
    def test_derive_copies_options_and_shares_infrastructure(self, session):
        scope = session.derive(collect_waveforms=True, segments=1)
        assert scope.options.collect_waveforms is True
        assert scope.options.segments == 1
        assert session.options.collect_waveforms is False
        assert session.options.segments == 2
        assert scope.cache is session.cache
        assert scope.executor is session.executor
        assert scope.telemetry is session.telemetry

    def test_derived_runs_do_not_collide(self, session):
        mapping = [didt()] * 6
        plain = session.run(mapping)
        scoped = session.derive(collect_waveforms=True, segments=1).run(
            mapping
        )
        assert scoped is not plain
        assert scoped.waveforms


class TestCampaignReplay:
    def test_second_registry_pass_hits_cache(self):
        # The acceptance check of the engine refactor: running the same
        # experiment twice in one process must serve the second pass
        # from the result cache (>= 50 % hit rate measured on its own
        # telemetry).
        from repro.experiments import get_experiment, quick_context

        driver = get_experiment("fig14")
        original = set_telemetry(Telemetry())
        try:
            first = driver(quick_context())
            second_pass = Telemetry()
            set_telemetry(second_pass)
            second = driver(quick_context())
            assert second_pass.cache_hit_rate() >= 0.5
            assert second_pass.counter("engine.runs_executed") == 0
        finally:
            set_telemetry(original)
        assert (
            first.data["cross_cluster_worst"]
            == second.data["cross_cluster_worst"]
        )
