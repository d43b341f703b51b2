"""Tests for the associative trace reuse table."""

from __future__ import annotations

import pytest

from repro.isa.convention import DATA_BASE, TEXT_BASE
from repro.traces.table import TraceReuseTable
from repro.traces.trace import CLASS_ALU, CLASS_LOAD, NUM_CLASSES, Trace

PC = TEXT_BASE
NUM_REGS = 32


def make_trace(start_pc, reg=9, value=5, mem_addr=None):
    """A two-instruction trace reading ``reg`` (and optionally memory)."""
    counts = [0] * NUM_CLASSES
    counts[CLASS_ALU] = 2
    if mem_addr is not None:
        # lw $8, 0($reg); addu $11, $reg, $reg
        counts[CLASS_ALU] -= 1
        counts[CLASS_LOAD] += 1
        return Trace(start_pc, 2, ((reg, mem_addr),), ((mem_addr, 4, 7),), (), tuple(counts))
    # addu $8, $reg, $10; addu $11, $reg, $reg
    return Trace(start_pc, 2, ((reg, value), (10, 1)), (), (), tuple(counts))


def regs_for(trace):
    regs = [0] * NUM_REGS
    for reg, value in trace.reg_in:
        regs[reg] = value
    return regs


class TestGeometry:
    def test_capacity_must_divide_by_ways(self):
        with pytest.raises(ValueError):
            TraceReuseTable(capacity=10, ways=4)

    def test_max_trace_len_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceReuseTable(max_trace_len=0)

    def test_defaults(self):
        table = TraceReuseTable()
        assert table.capacity == 1024
        assert table.ways == 4
        assert table.num_sets == 256


class TestLookup:
    def test_install_then_hit(self):
        table = TraceReuseTable()
        trace = make_trace(PC)
        table.install(trace)
        assert table.lookup(PC, regs_for(trace), 0, 0) is trace
        assert table.installs == 1

    def test_miss_on_stale_register(self):
        table = TraceReuseTable()
        trace = make_trace(PC, value=5)
        table.install(trace)
        regs = regs_for(trace)
        regs[9] += 1
        assert table.lookup(PC, regs, 0, 0) is None

    def test_miss_on_unknown_pc(self):
        table = TraceReuseTable()
        table.install(make_trace(PC))
        assert table.lookup(PC + 0x100, [0] * NUM_REGS, 0, 0) is None
        assert table.entries_at(PC + 0x100) is None

    def test_hit_promotes_to_mru(self):
        table = TraceReuseTable(capacity=8, ways=2)
        # Same set, same start pc, different live-in values.
        first = make_trace(PC, value=5)
        second = make_trace(PC, value=6)
        table.install(first)
        table.install(second)  # second is now MRU
        table.lookup(PC, regs_for(first), 0, 0)
        assert table.entries_at(PC)[0] is first


class TestEviction:
    def test_lru_evicted_when_set_full(self):
        table = TraceReuseTable(capacity=2, ways=2)
        traces = [make_trace(PC, value=v) for v in (5, 6, 7)]
        for trace in traces:
            table.install(trace)
        assert table.evictions == 1
        assert table.occupancy == 2
        # The value=5 trace was LRU and is gone; the others remain.
        assert table.lookup(PC, regs_for(traces[0]), 0, 0) is None
        assert table.lookup(PC, regs_for(traces[2]), 0, 0) is traces[2]

    def test_same_signature_replaces_in_place(self):
        table = TraceReuseTable(capacity=2, ways=2)
        first = make_trace(PC, value=5)
        clone = make_trace(PC, value=5)
        table.install(first)
        table.install(clone)
        assert table.occupancy == 1
        assert table.evictions == 0
        assert table.lookup(PC, regs_for(clone), 0, 0) is clone


class TestInvalidation:
    def test_store_kills_traces_with_touched_live_ins(self):
        table = TraceReuseTable()
        dependent = make_trace(PC, mem_addr=DATA_BASE)
        bystander = make_trace(PC + 0x40)
        table.install(dependent)
        table.install(bystander)
        assert table.invalidate_store(DATA_BASE, 4) == 1
        assert table.invalidations == 1
        assert table.lookup(PC, regs_for(dependent), 0, 0) is None
        assert table.lookup(PC + 0x40, regs_for(bystander), 0, 0) is bystander

    def test_word_granularity(self):
        table = TraceReuseTable()
        # Live-in at DATA_BASE+4; a byte store at DATA_BASE+6 shares its word.
        table.install(make_trace(PC, mem_addr=DATA_BASE + 4))
        assert table.invalidate_store(DATA_BASE + 6, 1) == 1
        # A store to the neighbouring word touches nothing.
        assert table.invalidate_store(DATA_BASE + 8, 4) == 0
        assert table.occupancy == 0
