"""Dispatch-group formation tests."""

from repro.isa.instruction import InstructionDef
from repro.uarch.grouping import form_groups
from repro.uarch.resources import default_core_config


def inst(mnemonic, **kw):
    defaults = dict(
        description="t", family="fixed-point", unit="FXU",
        issue_class="FXU.arith",
    )
    defaults.update(kw)
    return InstructionDef(mnemonic=mnemonic, **defaults)


ADD = inst("ADD")
BR = inst("BR", unit="BRU", issue_class="BRU.branch", ends_group=True)
LD = inst("LD", unit="LSU", issue_class="LSU.load", memory=True)
CPLX = inst("CPLX", group_alone=True, uops=4)
CFG = default_core_config()


class TestGroupFormation:
    def test_plain_triples(self):
        groups = form_groups([ADD] * 6, CFG)
        assert [len(g) for g in groups] == [3, 3]

    def test_remainder_group(self):
        groups = form_groups([ADD] * 7, CFG)
        assert [len(g) for g in groups] == [3, 3, 1]

    def test_branch_ends_group(self):
        groups = form_groups([ADD, BR, ADD, ADD], CFG)
        assert [len(g) for g in groups] == [2, 2]

    def test_branch_as_third_slot_keeps_full_group(self):
        groups = form_groups([ADD, ADD, BR] * 2, CFG)
        assert [len(g) for g in groups] == [3, 3]

    def test_group_alone_isolates(self):
        groups = form_groups([ADD, CPLX, ADD], CFG)
        assert [len(g) for g in groups] == [1, 1, 1]
        assert groups[1][0].mnemonic == "CPLX"

    def test_memory_port_limit(self):
        groups = form_groups([LD, LD, LD], CFG)
        # Only two memory ops share a group.
        assert [len(g) for g in groups] == [2, 1]

    def test_memory_limit_resets_per_group(self):
        groups = form_groups([LD, LD, LD, LD], CFG)
        assert [len(g) for g in groups] == [2, 2]

    def test_mixed_memory_and_alu(self):
        groups = form_groups([LD, ADD, LD, LD], CFG)
        assert [len(g) for g in groups] == [3, 1]

    def test_empty_body(self):
        assert form_groups([], CFG) == []
