"""Tests of the full synthetic ISA build and its Table I anchors."""

from collections import defaultdict

import pytest

from repro.errors import IsaError
from repro.isa.families import DEFAULT_FAMILIES, FamilySpec, generate_family
from repro.isa.zmainframe import (
    DEFAULT_ISA_SEED,
    PINNED_BOTTOM,
    PINNED_TOP,
    build_zmainframe_isa,
)


def by_family(isa):
    """Instructions grouped by generation family."""
    groups = defaultdict(list)
    for inst in isa:
        groups[inst.family].append(inst)
    return groups


class TestIsaBuild:
    def test_instruction_count_matches_paper(self, isa):
        assert len(isa) == 1301

    def test_deterministic_across_builds(self, isa):
        again = build_zmainframe_isa(DEFAULT_ISA_SEED)
        assert again.mnemonics == isa.mnemonics
        for mnemonic in ("CIB", "ALR", "VAB"):
            if mnemonic in isa:
                assert isa[mnemonic].power_weight == again[mnemonic].power_weight

    def test_different_seed_changes_generated_weights(self, isa):
        other = build_zmainframe_isa(DEFAULT_ISA_SEED + 1)
        generated = [m for m in isa.mnemonics if m not in PINNED_TOP + PINNED_BOTTOM]
        changed = sum(
            isa[m].power_weight != other[m].power_weight for m in generated[:50]
        )
        assert changed > 25

    def test_pinned_weights_are_extremes(self, isa):
        ranked = sorted(isa, key=lambda i: -i.power_weight)
        assert [i.mnemonic for i in ranked[:5]] == list(PINNED_TOP)
        assert [i.mnemonic for i in ranked[-5:]] == list(PINNED_BOTTOM)

    def test_pinned_values_match_paper(self, isa):
        assert isa["CIB"].power_weight == pytest.approx(1.58)
        assert isa["CRB"].power_weight == pytest.approx(1.57)
        assert isa["SRNM"].power_weight == 1.0

    def test_srnm_is_serializing_long_latency(self, isa):
        srnm = isa["SRNM"]
        assert srnm.serializing
        assert srnm.group_alone
        assert srnm.latency >= 20

    def test_dfp_multiplies_are_unit_blocking(self, isa):
        for mnemonic in ("DDTRA", "MXTRA", "MDTRA"):
            assert not isa[mnemonic].pipelined
            assert isa[mnemonic].unit == "DFU"

    def test_compare_branch_family_ends_groups(self, isa):
        for inst in by_family(isa)["compare-branch"]:
            assert inst.ends_group

    def test_lookup_unknown_raises(self, isa):
        with pytest.raises(IsaError):
            isa["NOSUCH"]

    def test_every_unit_is_populated(self, isa):
        assert {inst.unit for inst in isa} == {
            "FXU", "LSU", "BRU", "BFU", "DFU", "VXU", "SYS", "COP"
        }


class TestFamilyGeneration:
    def test_exact_counts(self, isa):
        families = by_family(isa)
        for spec in DEFAULT_FAMILIES:
            pinned_extra = {
                "compare-branch": 4, "compare": 1, "decimal-fp": 3, "system": 2,
            }.get(spec.name, 0)
            assert len(families[spec.name]) == spec.count + pinned_extra

    def test_power_ranges_respected(self, isa):
        pinned = set(PINNED_TOP) | set(PINNED_BOTTOM)
        families = by_family(isa)
        for spec in DEFAULT_FAMILIES:
            lo, hi = spec.power_range
            for inst in families[spec.name]:
                if inst.mnemonic in pinned:
                    continue
                assert lo <= inst.power_weight <= hi, inst.mnemonic

    def test_generated_weights_below_pinned_top(self, isa):
        pinned = set(PINNED_TOP)
        ceiling = min(isa[m].power_weight for m in PINNED_TOP)
        for inst in isa:
            if inst.mnemonic not in pinned:
                assert inst.power_weight < ceiling

    def test_mnemonic_collision_avoidance(self):
        spec = FamilySpec(
            name="tiny",
            unit="FXU",
            issue_class="FXU.arith",
            count=10,
            roots=[("A", "Add")],
            forms=[("R", "register"), ("G", "(64)")],
            power_range=(1.1, 1.2),
        )
        taken = {"AR"}  # force a collision with the first combo
        out = generate_family(spec, 1, taken)
        assert len(out) == 10
        assert len({i.mnemonic for i in out}) == 10
        assert "AR" not in {i.mnemonic for i in out}

    def test_bad_spec_rejected(self):
        with pytest.raises(IsaError):
            FamilySpec(
                name="bad", unit="FXU", issue_class="x", count=0,
                roots=[("A", "a")], forms=[("", "")], power_range=(1.1, 1.2),
            )
        with pytest.raises(IsaError):
            FamilySpec(
                name="bad", unit="FXU", issue_class="x", count=1,
                roots=[("A", "a")], forms=[("", "")], power_range=(0.5, 1.2),
            )
