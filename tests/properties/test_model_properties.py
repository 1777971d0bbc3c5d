"""Property-based tests on grouping, throughput, skitter and edge
trains."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.instruction import InstructionDef
from repro.measure.skitter import SkitterConfig, SkitterMacro
from repro.pdn.superposition import edges_from_square_wave
from repro.uarch.grouping import form_groups
from repro.uarch.resources import default_core_config
from repro.uarch.throughput import analyze_loop

CFG = default_core_config()


@st.composite
def instructions(draw):
    unit = draw(st.sampled_from(["FXU", "LSU", "BRU", "BFU", "VXU"]))
    ends_group = draw(st.booleans()) if unit == "BRU" else False
    group_alone = draw(st.booleans()) if unit in ("LSU", "BFU") else False
    return InstructionDef(
        mnemonic=f"I{draw(st.integers(0, 10_000))}",
        description="prop",
        family="fixed-point",
        unit=unit,
        issue_class=f"{unit}.x",
        uops=draw(st.integers(1, 3)),
        latency=draw(st.integers(1, 8)),
        pipelined=draw(st.booleans()),
        ends_group=ends_group,
        group_alone=group_alone,
        memory=(unit == "LSU"),
    )


bodies = st.lists(instructions(), min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(body=bodies)
def test_groups_partition_the_body(body):
    groups = form_groups(body, CFG)
    flattened = [inst for group in groups for inst in group]
    assert flattened == list(body)


@settings(max_examples=60, deadline=None)
@given(body=bodies)
def test_group_invariants(body):
    for group in form_groups(body, CFG):
        assert 1 <= len(group) <= CFG.dispatch_width
        assert sum(i.memory for i in group) <= CFG.max_memory_per_group
        if any(i.group_alone for i in group):
            assert len(group) == 1
        # A branch may only terminate the group.
        for inst in group[:-1]:
            assert not inst.ends_group


@settings(max_examples=60, deadline=None)
@given(body=bodies)
def test_ipc_bounded_by_dispatch_width(body):
    profile = analyze_loop(body, CFG)
    # Dispatch groups hold up to `dispatch_width` *instructions*; each
    # may crack into several µops, so the µop-IPC bound scales with the
    # body's fattest instruction.
    max_uops = max(inst.uops for inst in body)
    assert 0 < profile.ipc <= CFG.dispatch_width * max_uops + 1e-9
    assert profile.cycles >= profile.groups


@settings(max_examples=60, deadline=None)
@given(body=bodies, extra=instructions())
def test_adding_work_never_reduces_cycles(body, extra):
    base = analyze_loop(body, CFG).cycles
    more = analyze_loop(list(body) + [extra], CFG).cycles
    assert more >= base - 1e-9


@settings(max_examples=60, deadline=None)
@given(
    v_min=st.floats(min_value=0.80, max_value=1.05),
    deeper=st.floats(min_value=0.001, max_value=0.1),
)
def test_skitter_monotone_in_droop(v_min, deeper):
    macro = SkitterMacro(SkitterConfig(), "p")
    macro.observe(v_min, 1.06)
    shallow = macro.read().p2p_pct
    macro.reset()
    macro.observe(v_min - deeper, 1.06)
    deep = macro.read().p2p_pct
    assert deep >= shallow


@settings(max_examples=60, deadline=None)
@given(
    delta=st.floats(min_value=0.1, max_value=50.0),
    freq=st.floats(min_value=1e3, max_value=5e7),
    events=st.integers(min_value=1, max_value=40),
    duty=st.floats(min_value=0.1, max_value=0.9),
)
def test_edge_trains_are_charge_neutral(delta, freq, events, duty):
    train = edges_from_square_wave("p", delta, freq, events, duty=duty)
    # Rising and falling edges cancel: the burst ends at the baseline.
    assert train.deltas.sum() == pytest.approx(0.0, abs=1e-9)
    assert train.times.size == 2 * events
    assert np.all(np.diff(train.times) > -1e-15)


@settings(max_examples=60, deadline=None)
@given(
    freq=st.floats(min_value=1e3, max_value=1e9),
    rise=st.floats(min_value=1e-10, max_value=1e-7),
)
def test_edge_derating_never_exceeds_request(freq, rise):
    train = edges_from_square_wave("p", 10.0, freq, 1, rise_time=rise)
    assert abs(train.deltas[0]) <= 10.0 + 1e-12
