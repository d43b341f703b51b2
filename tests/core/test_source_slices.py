"""Exact Table 3 category counts for hand-written dataflow chains.

Each program is small enough that the slice of every dynamic instruction
can be read off by hand: which root — an immediate, an initialized data
word, or an input syscall — its value descends from, through registers,
memory and the hi/lo pair.  The global source analyzer must bin every
instruction accordingly on both engines.
"""

from __future__ import annotations

import pytest

from repro.asm import assemble
from repro.core import GlobalSourceAnalyzer, RepetitionTracker
from repro.sim import Simulator

ENGINES = ("predecoded", "interpreter")


def categories(source: str, engine: str, input_data: bytes = b"6") -> dict:
    tracker = RepetitionTracker()
    analyzer = GlobalSourceAnalyzer(tracker)
    result = Simulator(
        assemble(source),
        input_data=input_data,
        analyzers=[tracker, analyzer],
        engine=engine,
    ).run()
    counts = {name: stats.total for name, stats in analyzer.stats.items() if stats.total}
    assert sum(counts.values()) == result.analyzed_instructions
    return counts


@pytest.mark.parametrize("engine", ENGINES)
class TestSlices:
    def test_immediate_chain_is_internal(self, engine):
        counts = categories(
            """
        .ent main, 0
main:   li $t0, 1
        addiu $t1, $t0, 1
        addiu $t2, $t1, 1
        li $t9, 99
        jr $ra
        .end main
""",
            engine,
        )
        assert counts == {"internals": 5}

    def test_input_flows_through_store_and_load(self, engine):
        counts = categories(
            """
        .data
cell:   .space 4
        .text
        .ent main, 0
main:   li $v0, 5
        syscall
        la $t1, cell
        sw $v0, 0($t1)          # external
        li $t5, 1000
        lw $t2, 0($t1)          # external
        addiu $t3, $t2, 0       # external
        jr $ra
        .end main
""",
            engine,
        )
        assert counts == {"internals": 5, "external input": 3}

    def test_initialized_word_is_a_root(self, engine):
        counts = categories(
            """
        .data
v:      .word 9
        .text
        .ent main, 0
main:   lw $t0, v($gp)          # global init
        addiu $t1, $t0, 1       # global init
        jr $ra
        .end main
""",
            engine,
        )
        assert counts == {"global init data": 2, "internals": 1}

    def test_overwritten_word_carries_the_stored_tag(self, engine):
        counts = categories(
            """
        .data
v:      .word 9
        .text
        .ent main, 0
main:   li $t0, 4
        sw $t0, v($gp)
        lw $t1, v($gp)
        addiu $t2, $t1, 1
        jr $ra
        .end main
""",
            engine,
        )
        assert counts == {"internals": 5}

    def test_input_flows_through_hi_lo(self, engine):
        counts = categories(
            """
        .ent main, 0
main:   li $v0, 5
        syscall
        li $t1, 7
        mult $v0, $t1           # external
        mflo $t2                # external
        mfhi $t3                # external
        jr $ra
        .end main
""",
            engine,
        )
        assert counts == {"internals": 4, "external input": 3}

    def test_external_supersedes_global_init(self, engine):
        counts = categories(
            """
        .data
v:      .word 9
        .text
        .ent main, 0
main:   li $v0, 5
        syscall
        lw $t0, v($gp)          # global init
        addu $t1, $t0, $v0      # external beats global init
        jr $ra
        .end main
""",
            engine,
        )
        assert counts == {"internals": 3, "global init data": 1, "external input": 1}
