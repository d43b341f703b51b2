"""Tests for the analyzer-only trace reuse characterization."""

from __future__ import annotations

import dataclasses
import subprocess
import sys

import pytest

from repro.isa.convention import DATA_BASE, TEXT_BASE
from repro.traces.analyzer import TraceReuseAnalyzer, TraceReuseReport, length_bucket
from repro.traces.template import REASON_TOO_SHORT

from tests.helpers import child_env, make_instruction, make_step

PC = TEXT_BASE


def alu(pc, rd=8, rs=9, rt=10, a=5, b=7):
    total = (a + b) & 0xFFFFFFFF
    return make_step(pc=pc, op="addu", inputs=(a, b), outputs=(total,),
                     dest_reg=rd, dest_value=total, rd=rd, rs=rs, rt=rt)


def branch(pc, taken=False, target=None, rs=9, rt=10, a=5, b=7):
    return make_step(
        pc=pc, op="beq", inputs=(a, b), outputs=(1,) if taken else (0,),
        rs=rs, rt=rt, target=target if target is not None else pc + 32,
    )


def load(pc, addr, value, rt=8, rs=9, base=0):
    return make_step(pc=pc, op="lw", inputs=(addr - base,), outputs=(value,),
                     dest_reg=rt, dest_value=value, mem_addr=addr, rt=rt, rs=rs)


def store(pc, addr, value, rt=8, rs=9):
    return make_step(pc=pc, op="sw", inputs=(value, addr), outputs=(),
                     mem_addr=addr, store_value=value, rt=rt, rs=rs)


def region(base=PC):
    """A 3-instruction region: two ALU ops then an untaken branch."""
    return [
        alu(base, rd=8, rs=9, rt=10, a=5, b=7),
        alu(base + 4, rd=11, rs=8, rt=9, a=12, b=5),
        branch(base + 8, taken=False, rs=11, rt=10, a=17, b=7),
    ]


def feed(analyzer, records):
    for record in records:
        analyzer.on_step(record)


class TestLengthBucket:
    def test_buckets(self):
        assert length_bucket(1) == "1"
        assert length_bucket(3) == "3"
        assert length_bucket(5) == "4-7"
        assert length_bucket(15) == "8-15"
        assert length_bucket(16) == "16+"
        assert length_bucket(100) == "16+"


class TestAccounting:
    def test_empty_report(self):
        report = TraceReuseAnalyzer().report()
        assert report.dynamic_total == 0
        assert report.coverage_pct == 0.0

    def test_repeated_region_hits_exactly_once(self):
        analyzer = TraceReuseAnalyzer()
        feed(analyzer, region())
        feed(analyzer, region())
        report = analyzer.report()
        assert report.dynamic_total == 6
        assert report.probes == 2
        assert report.misses == 1
        assert report.hits == 1
        assert report.covered_instructions == 3
        assert report.traces_recorded == 1
        assert report.coverage_pct == 50.0
        assert report.hit_rate_pct == 50.0
        assert report.mean_hit_length == 3.0
        assert report.hit_length_hist["3"] == 1
        assert report.hit_length_pct("3") == 100.0
        # Two ALU + one branch instruction covered.
        assert report.class_coverage_pct("alu") == 100.0 * 2 / 3
        assert report.class_coverage_pct("branch") == 100.0 * 1 / 3

    def test_changed_live_in_misses(self):
        analyzer = TraceReuseAnalyzer()
        feed(analyzer, region())
        # An intervening region rewrites live-in r9, so revisiting the
        # same pcs must miss even though the trace is resident.
        feed(analyzer, [
            alu(PC + 0x100, rd=9, rs=4, rt=5, a=4, b=2),
            branch(PC + 0x104, taken=True, target=PC, rs=9, rt=5, a=6, b=2),
        ])
        feed(analyzer, [
            alu(PC, rd=8, rs=9, rt=10, a=6, b=7),
            alu(PC + 4, rd=11, rs=8, rt=9, a=13, b=6),
            branch(PC + 8, taken=False, rs=11, rt=10, a=19, b=7),
        ])
        report = analyzer.report()
        assert report.hits == 0
        assert report.misses == 3
        assert report.traces_recorded == 3

    def test_unknown_shadow_value_conservatively_misses(self):
        analyzer = TraceReuseAnalyzer()
        # Install a trace whose live-in r20 the shadow will forget about
        # after a fresh analyzer starts.
        feed(analyzer, [
            alu(PC, rd=8, rs=20, rt=21, a=1, b=2),
            branch(PC + 4, rs=8, rt=21, a=3, b=2),
        ])
        fresh = TraceReuseAnalyzer()
        fresh.table = analyzer.table
        feed(fresh, [branch(PC + 100, rs=22, rt=23, a=0, b=0)])
        # Probe at PC with unknown r20 must miss even though the trace is
        # resident with r20=1 recorded.
        fresh.on_step(alu(PC, rd=8, rs=20, rt=21, a=1, b=2))
        assert fresh.hits == 0


class TestBoundaries:
    def test_syscall_cuts_region_before_itself(self):
        analyzer = TraceReuseAnalyzer()
        records = [
            alu(PC), alu(PC + 4),
            make_step(pc=PC + 8, op="syscall", inputs=(1, 42)),
        ]
        feed(analyzer, records)
        feed(analyzer, records)
        report = analyzer.report()
        # The 2-alu prefix is recorded and later hit; the syscall itself
        # is neither probed nor part of any trace.
        assert report.traces_recorded == 1
        assert report.hits == 1
        assert report.covered_instructions == 2
        assert report.rejections == {}

    def test_lone_syscall_region_records_nothing(self):
        analyzer = TraceReuseAnalyzer()
        feed(analyzer, [
            branch(PC, taken=False),
            make_step(pc=PC + 4, op="syscall", inputs=(1, 42)),
            branch(PC + 8, taken=False),
        ])
        report = analyzer.report()
        assert report.probes == 2  # the two branches; not the syscall
        assert report.rejections == {REASON_TOO_SHORT: 2}

    def test_single_instruction_region_rejected_too_short(self):
        analyzer = TraceReuseAnalyzer()
        feed(analyzer, [branch(PC, taken=False)])
        assert analyzer.report().rejections == {REASON_TOO_SHORT: 1}

    def test_max_len_splits_region(self):
        analyzer = TraceReuseAnalyzer(max_trace_len=4)
        records = [alu(PC + 4 * i, rd=8, rs=0, rt=0, a=0, b=0) for i in range(10)]
        records.append(branch(PC + 40, taken=True, target=PC, rs=0, rt=0, a=0, b=0))
        feed(analyzer, records)
        feed(analyzer, records)
        report = analyzer.report()
        # 11 straight-line steps split into 4+4+3; the second pass hits
        # all three pieces.
        assert report.traces_recorded == 3
        assert report.hits == 3
        assert report.covered_instructions == 11

    @pytest.mark.parametrize("max_len", [2, 3, 4, 8])
    def test_no_recorded_trace_exceeds_max_len(self, max_len):
        # Regions are split at max_trace_len before recording, so no
        # candidate can be too long: 18 steps record whole, in pieces.
        analyzer = TraceReuseAnalyzer(max_trace_len=max_len)
        records = [alu(PC + 4 * i, rd=8, rs=0, rt=0, a=0, b=0) for i in range(17)]
        records.append(branch(PC + 68, taken=True, target=PC, rs=0, rt=0, a=0, b=0))
        feed(analyzer, records)
        report = analyzer.report()
        assert report.rejections == {}
        assert report.recorded_length_max == max_len
        assert report.recorded_length_total == 18
        assert report.traces_recorded == -(-18 // max_len)


def hand_report(hit_length_hist=(), **fields) -> TraceReuseReport:
    """An empty analyzer's report with ``fields`` filled in by hand."""
    empty = TraceReuseAnalyzer().report()
    hist = dict(empty.hit_length_hist, **dict(hit_length_hist))
    return dataclasses.replace(empty, hit_length_hist=hist, **fields)


class TestTemplates:
    """Region templates are cached only for straight-line regions."""

    def test_region_that_is_not_straight_line(self):
        # Instructions are shared between passes, as in a real program,
        # so nothing is recompiled and cached templates stay live.
        add = make_instruction("addu", rd=8, rs=9, rt=10)
        add2 = make_instruction("addu", rd=11, rs=8, rt=9)
        beq = make_instruction("beq", rs=11, rt=10, target=PC + 32)
        sub = make_instruction("subu", rd=12, rs=13, rt=8)
        bne = make_instruction("bne", rs=12, rt=14, target=PC + 32)

        def step(pc, instr, inputs, outputs=(0,), dest=None, value=0):
            return make_step(pc=pc, instr=instr, inputs=inputs, outputs=outputs,
                             dest_reg=dest, dest_value=value)

        straight = [
            step(PC, add, (5, 7), (12,), 8, 12),
            step(PC + 4, add2, (12, 5), (17,), 11, 17),
            step(PC + 8, beq, (17, 7)),
        ]
        # Same start pc and length, but the second step sits at PC + 0x40:
        # only a synthetic stream does this.
        scattered = [
            step(PC, add, (6, 7), (13,), 8, 13),
            step(PC + 0x40, sub, (3, 13), (0xFFFFFFF6,), 12, 0xFFFFFFF6),
            step(PC + 0x44, bne, (0xFFFFFFF6, 0)),
        ]
        analyzer = TraceReuseAnalyzer()
        feed(analyzer, straight)   # miss: records (PC, 3), caches its template
        feed(analyzer, scattered)  # hits that trace; r9 becomes 6
        feed(analyzer, scattered)  # miss: recorded with a template of its own
        entries = analyzer.table.entries_at(PC)
        # The scattered trace reads r13 and r14 too, which the cached
        # template of the straight region would have missed.
        assert [trace.reg_in for trace in entries] == [
            ((9, 6), (10, 7), (13, 3), (14, 0)),
            ((9, 5), (10, 7)),
        ]
        assert analyzer.report() == hand_report(
            dynamic_total=9, probes=3, hits=1, misses=2, covered_instructions=3,
            traces_recorded=2, occupancy=2, hit_length_hist={"3": 1},
            class_coverage=(2, 0, 0, 1, 0, 0),
            recorded_length_total=6, recorded_length_max=3,
        )

    def test_one_instruction_object_at_two_pcs(self):
        # r10 = r8 + r9 at PC and at PC + 4, from the same Instruction object.
        add = make_instruction("addu", rd=10, rs=8, rt=9)
        beq = make_instruction("beq", rs=10, rt=9, target=PC)

        def region(start):
            adds = [
                make_step(pc=pc, instr=add, inputs=(1, 2), outputs=(3,),
                          dest_reg=10, dest_value=3)
                for pc in range(start, PC + 8, 4)
            ]
            return adds + [make_step(pc=PC + 8, instr=beq, inputs=(3, 2), outputs=(0,))]

        analyzer = TraceReuseAnalyzer()
        feed(analyzer, region(PC))        # miss: records (PC, 3)
        feed(analyzer, region(PC))        # hit
        feed(analyzer, region(PC + 4))    # miss: records (PC + 4, 2)
        feed(analyzer, region(PC + 4))    # hit
        for start, length in ((PC, 3), (PC + 4, 2)):
            (trace,) = analyzer.table.entries_at(start)
            assert (trace.length, trace.reg_in) == (length, ((8, 1), (9, 2)))
        assert analyzer.report() == hand_report(
            dynamic_total=10, probes=4, hits=2, misses=2, covered_instructions=5,
            traces_recorded=2, occupancy=2, hit_length_hist={"2": 1, "3": 1},
            class_coverage=(3, 0, 0, 2, 0, 0),
            recorded_length_total=5, recorded_length_max=3,
        )

    def test_new_instruction_at_a_pc_gets_a_new_template(self):
        beq = make_instruction("beq", rs=8, rt=0, target=PC)
        # A region of its own that zeroes r9, so the second pass misses.
        clear_r9 = [
            make_step(pc=PC + 0x100, op="addu", rd=9, rs=0, rt=0, inputs=(0, 0),
                      outputs=(0,), dest_reg=9, dest_value=0),
            branch(PC + 0x104, rs=0, rt=0, a=0, b=0),
        ]
        analyzer = TraceReuseAnalyzer()
        for rs, rt in ((9, 10), (11, 12)):
            feed(analyzer, [
                make_step(pc=PC, op="addu", rd=8, rs=rs, rt=rt, inputs=(1, 2),
                          outputs=(3,), dest_reg=8, dest_value=3),
                make_step(pc=PC + 4, instr=beq, inputs=(3, 0), outputs=(0,)),
                *clear_r9,
            ])
        assert [trace.reg_in for trace in analyzer.table.entries_at(PC)] == [
            ((11, 1), (12, 2)),
            ((9, 1), (10, 2)),
        ]


class TestInvalidation:
    def test_store_invalidates_memory_dependent_trace(self):
        analyzer = TraceReuseAnalyzer()
        loads = [
            load(PC, DATA_BASE, 7),
            branch(PC + 4, rs=8, rt=10, a=7, b=9),
        ]
        feed(analyzer, loads)
        feed(analyzer, loads)
        assert analyzer.hits == 1
        # A store to the live-in word evicts the trace; the next visit
        # must miss and re-record.  The store's own region ends with a
        # branch over registers the load region does not read.
        feed(analyzer, [
            store(PC + 36, DATA_BASE, 99, rt=11, rs=12),
            branch(PC + 40, rs=12, rt=13, a=0, b=1),
        ])
        feed(analyzer, loads)
        report = analyzer.report()
        assert report.invalidations == 1
        assert report.hits == 1
        assert report.misses == 3
        assert report.probes == 4


class TestMetrics:
    def test_on_finish_publishes_counters(self, metrics_enabled):
        analyzer = TraceReuseAnalyzer()
        feed(analyzer, region())
        feed(analyzer, region())
        analyzer.on_finish()
        assert metrics_enabled.value("trace.probes") == 2
        assert metrics_enabled.value("trace.hits") == 1
        assert metrics_enabled.value("trace.covered_instructions") == 3
        assert metrics_enabled.value("trace.recorded") == 1
        assert metrics_enabled.value("trace.rejected") == 0
        assert metrics_enabled.snapshot()["gauges"]["trace.occupancy"] == 1

    def test_disabled_registry_stays_silent(self):
        analyzer = TraceReuseAnalyzer()
        feed(analyzer, region())
        analyzer.on_finish()  # must not raise, must not record


def test_package_does_not_import_core():
    # Table 10T stands on the ISA and the simulator alone.
    code = (
        "import sys, repro.traces; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.core')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=child_env(),
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert proc.stdout.strip() == "[]"
