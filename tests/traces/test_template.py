"""Tests for region templates: trace boundaries and live-in gathering."""

from __future__ import annotations

import pytest

from repro.isa.convention import DATA_BASE, TEXT_BASE
from repro.traces.safety import (
    REASON_OVERLAP,
    REASON_TOO_SHORT,
    REASON_UNTRACKED_STORE,
    SafetyPolicy,
)
from repro.traces.template import RegionTemplate
from repro.traces.trace import (
    BOUNDARY_END,
    BOUNDARY_EXCLUDE,
    BOUNDARY_NONE,
    CLASS_ALU,
    CLASS_BRANCH,
    CLASS_LOAD,
    CLASS_STORE,
    boundary_kind,
)

from tests.helpers import make_instruction

PC = TEXT_BASE

#: Admit single-instruction candidates so each rule can be seen alone.
ANY_LENGTH = SafetyPolicy(min_len=1)


def make_step(pc, op, inputs=(), outputs=(), value=0, address=None, **fields):
    """One recorded region step: ``(instr, inputs, outputs, value, address)``."""
    return (make_instruction(op, addr=pc, **fields), inputs, outputs, value, address)


def alu(pc, rd, rs, rt, a, b):
    return make_step(
        pc, "addu", inputs=(a, b), outputs=((a + b) & 0xFFFFFFFF,),
        value=(a + b) & 0xFFFFFFFF, rd=rd, rs=rs, rt=rt,
    )


def load(pc, rt, rs, addr, value):
    return make_step(
        pc, "lw", inputs=(addr,), outputs=(value,), value=value, address=addr,
        rt=rt, rs=rs,
    )


def store(pc, rt, rs, addr, value, op="sw"):
    return make_step(pc, op, inputs=(value, addr), address=addr, rt=rt, rs=rs)


def branch(pc, rs, rt, a, b, taken, target):
    return make_step(
        pc, "beq", inputs=(a, b), outputs=(1,) if taken else (0,),
        rs=rs, rt=rt, target=target,
    )


def record(steps, max_len=16, policy=ANY_LENGTH):
    """``(trace, reason)`` of ``steps`` under a template of their own."""
    return RegionTemplate(steps[0][0].addr, steps).record(steps, max_len, policy)


class TestBoundaries:
    def test_straight_line_is_interior(self):
        assert boundary_kind(make_instruction("addu", rd=8, rs=9, rt=10)) == BOUNDARY_NONE
        assert boundary_kind(make_instruction("lw", rt=8, rs=9)) == BOUNDARY_NONE

    def test_branches_and_jumps_end_traces(self):
        assert boundary_kind(make_instruction("beq", rs=8, rt=9)) == BOUNDARY_END
        assert boundary_kind(make_instruction("j", target=PC)) == BOUNDARY_END
        # Computed jump through a non-return register ends a trace too.
        assert boundary_kind(make_instruction("jr", rs=8)) == BOUNDARY_END

    def test_calls_returns_syscalls_are_excluded(self):
        assert boundary_kind(make_instruction("jal", target=PC)) == BOUNDARY_EXCLUDE
        assert boundary_kind(make_instruction("jalr", rd=31, rs=8)) == BOUNDARY_EXCLUDE
        assert boundary_kind(make_instruction("jr", rs=31)) == BOUNDARY_EXCLUDE
        assert boundary_kind(make_instruction("syscall")) == BOUNDARY_EXCLUDE

    @pytest.mark.parametrize(
        "step",
        [
            make_step(PC, "syscall", inputs=(1, 42)),
            make_step(PC, "jal", target=PC + 64, value=PC + 4),
            make_step(PC, "jr", inputs=(PC + 4,), rs=31),
        ],
        ids=["syscall", "call", "return"],
    )
    def test_excluded_instruction_cannot_form_a_region(self, step):
        with pytest.raises(ValueError):
            RegionTemplate(PC - 4, [alu(PC - 4, 8, 9, 10, 1, 2), step])


class TestDataflow:
    def test_live_in_registers(self):
        steps = [
            alu(PC, 8, 9, 10, a=5, b=7),          # r8 = r9 + r10
            alu(PC + 4, 12, 8, 9, a=12, b=5),     # r12 = r8 + r9
            branch(PC + 8, 12, 11, 17, 0, False, PC),
        ]
        trace, reason = record(steps)
        assert reason is None
        # r8/r12 are produced in-trace; r9, r10, r11 come from outside.
        assert trace.reg_in == ((9, 5), (10, 7), (11, 0))
        assert trace.start_pc == PC
        assert trace.length == 3
        assert trace.live_in_signature == (PC, trace.reg_in, (), ())

    def test_class_counts(self):
        trace, _ = record([
            alu(PC, 8, 9, 10, 1, 2),
            load(PC + 4, 8, 9, DATA_BASE, 42),
            store(PC + 8, 8, 9, DATA_BASE, 42),
            branch(PC + 12, 8, 9, 1, 1, True, PC),
        ])
        assert trace.class_counts[CLASS_ALU] == 1
        assert trace.class_counts[CLASS_LOAD] == 1
        assert trace.class_counts[CLASS_STORE] == 1
        assert trace.class_counts[CLASS_BRANCH] == 1

    def test_load_from_untouched_memory_is_live_in(self):
        trace, _ = record([load(PC, 8, 9, DATA_BASE, 42)])
        assert trace.mem_in == ((DATA_BASE, 4, 42),)

    def test_load_covered_by_in_trace_store_is_internal(self):
        trace, reason = record([
            store(PC, 8, 9, DATA_BASE, 7),
            load(PC + 4, 10, 9, DATA_BASE, 7),
        ])
        assert reason is None
        assert trace.mem_in == ()

    def test_partially_covered_load_rejects(self):
        # Store one byte, then load the word containing it.
        trace, reason = record([
            store(PC, 8, 9, DATA_BASE, 7, op="sb"),
            load(PC + 4, 10, 9, DATA_BASE, 0x0000_0007),
        ])
        assert trace is None
        assert reason == REASON_OVERLAP

    def test_duplicate_loads_recorded_once(self):
        trace, _ = record([
            load(PC, 8, 9, DATA_BASE, 42),
            load(PC + 4, 10, 9, DATA_BASE, 42),
        ])
        assert trace.mem_in == ((DATA_BASE, 4, 42),)

    def test_signed_byte_load_records_raw_byte(self):
        trace, _ = record([
            make_step(
                PC, "lb", inputs=(DATA_BASE,), outputs=(0xFFFFFFFF,),
                value=0xFFFFFFFF, address=DATA_BASE, rt=8, rs=9,
            )
        ])
        # The live-in holds the unextended memory byte, 0xFF.
        assert trace.mem_in == ((DATA_BASE, 1, 0xFF),)

    def test_hi_lo_tracking(self):
        trace, _ = record([
            make_step(PC, "mfhi", inputs=(3,), outputs=(3,), value=3, rd=8),
            make_step(PC + 4, "mult", inputs=(2, 5), outputs=(0, 10), rs=9, rt=10),
            make_step(PC + 8, "mflo", inputs=(10,), outputs=(10,), value=10, rd=11),
        ])
        # mfhi before the mult reads external hi; mflo after it does not.
        assert trace.hi_lo_in == ((True, 3),)
        assert trace.reg_in == ((9, 2), (10, 5))

    def test_store_outside_tracked_segments_rejects(self):
        # A store into the text segment: self-modifying-code adjacent.
        trace, reason = record([store(PC, 8, 9, TEXT_BASE + 0x100, 1)])
        assert trace is None
        assert reason == REASON_UNTRACKED_STORE

    def test_tracked_store_stays_safe(self):
        trace, reason = record([store(PC, 8, 9, DATA_BASE, 1)])
        assert reason is None
        assert trace.mem_in == ()

    def test_first_violation_wins(self):
        _, reason = record([
            store(PC, 8, 9, DATA_BASE, 7, op="sb"),
            load(PC + 4, 10, 9, DATA_BASE, 7),
            store(PC + 8, 8, 9, TEXT_BASE, 1),
        ])
        assert reason == REASON_OVERLAP

    def test_policy_applies(self):
        trace, reason = record([alu(PC, 8, 9, 10, 1, 2)], policy=SafetyPolicy())
        assert trace is None
        assert reason == REASON_TOO_SHORT


class TestReuse:
    """One template, built from one instance, gathers every other one."""

    @staticmethod
    def instance(a, b, addr, value):
        return [
            load(PC, 8, 9, addr, value),
            alu(PC + 4, 10, 8, 11, value, a),
            store(PC + 8, 10, 12, addr + 4, (value + a) & 0xFFFFFFFF),
            load(PC + 12, 13, 12, addr + 4, (value + a) & 0xFFFFFFFF),
            branch(PC + 16, 13, 14, (value + a) & 0xFFFFFFFF, b, False, PC),
        ]

    @pytest.mark.parametrize(
        "values", [(1, 2, DATA_BASE, 3), (7, 7, DATA_BASE + 64, 0xFFFF_FFFF)]
    )
    def test_gathered_equals_own_template(self, values):
        template = RegionTemplate(PC, self.instance(5, 6, DATA_BASE + 8, 9))
        steps = self.instance(*values)
        shared, shared_reason = template.record(steps, 16)
        own, own_reason = record(steps, policy=SafetyPolicy())
        assert shared_reason is own_reason is None
        assert shared.live_in_signature == own.live_in_signature
        assert shared.class_counts == own.class_counts
        a, b, addr, value = values
        assert shared.reg_in == ((9, addr), (11, a), (12, addr + 4), (14, b))
        assert shared.mem_in == ((addr, 4, value),)
