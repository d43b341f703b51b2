"""Tests for the two-pass assembler and program image."""

from __future__ import annotations

import re

import pytest

from repro.asm import AsmError, assemble
from repro.isa.convention import DATA_BASE, GP_VALUE, TEXT_BASE
from repro.isa.registers import GP

from tests.helpers import run_asm


MINIMAL = """
        .text
        .ent main, 0
main:   jr $ra
        .end main
"""


class TestLayout:
    def test_text_base(self):
        program = assemble(MINIMAL)
        assert program.text[0].addr == TEXT_BASE

    def test_data_word_layout(self):
        program = assemble(
            """
        .data
a:      .word 1, 2, 3
b:      .word 4
        .text
        .ent main, 0
main:   jr $ra
        .end main
"""
        )
        assert program.symbols["a"] == DATA_BASE
        assert program.symbols["b"] == DATA_BASE + 12
        assert program.data[0:4] == (1).to_bytes(4, "little")

    def test_label_binds_after_alignment(self):
        program = assemble(
            """
        .data
s:      .asciiz "abc"
w:      .word 7
        .text
        .ent main, 0
main:   jr $ra
        .end main
"""
        )
        # "abc\0" is 4 bytes; already aligned, so w follows directly.
        assert program.symbols["w"] == DATA_BASE + 4
        program2 = assemble(
            """
        .data
s:      .asciiz "abcd"
w:      .word 7
        .text
        .ent main, 0
main:   jr $ra
        .end main
"""
        )
        # "abcd\0" = 5 bytes; w must be aligned up to 8.
        assert program2.symbols["w"] == DATA_BASE + 8

    def test_space_is_uninitialized(self):
        program = assemble(
            """
        .data
a:      .word 9
b:      .space 8
        .text
        .ent main, 0
main:   jr $ra
        .end main
"""
        )
        assert all(program.data_initialized[0:4])
        assert not any(program.data_initialized[4:12])

    def test_byte_and_half_directives(self):
        program = assemble(
            """
        .data
a:      .byte 1, 2, 255
h:      .half 300
        .text
        .ent main, 0
main:   jr $ra
        .end main
"""
        )
        assert program.data[0:3] == bytes([1, 2, 255])
        assert program.symbols["h"] == DATA_BASE + 4  # aligned to 2... padded
        offset = program.symbols["h"] - DATA_BASE
        assert int.from_bytes(program.data[offset : offset + 2], "little") == 300

    def test_word_fixup_references_symbol(self):
        program = assemble(
            """
        .data
ptr:    .word target
target: .word 42
        .text
        .ent main, 0
main:   jr $ra
        .end main
"""
        )
        stored = int.from_bytes(program.data[0:4], "little")
        assert stored == program.symbols["target"]


class TestSymbols:
    def test_branch_target_resolved(self):
        program = assemble(
            """
        .text
        .ent main, 0
main:   beq $zero, $zero, done
        nop
done:   jr $ra
        .end main
"""
        )
        assert program.text[0].target == program.symbols["done"]
        assert program.text[0].label == "done"

    def test_forward_and_backward_references(self):
        program = assemble(
            """
        .text
        .ent main, 0
main:   j end
loop:   j loop
end:    jr $ra
        .end main
"""
        )
        assert program.text[0].target == program.symbols["end"]
        assert program.text[1].target == program.symbols["loop"]

    def test_duplicate_symbol_rejected(self):
        with pytest.raises(AsmError):
            assemble("x: nop\nx: nop\n.ent main, 0\nmain: jr $ra\n.end main")

    def test_undefined_symbol_rejected(self):
        with pytest.raises(AsmError):
            assemble(".ent main, 0\nmain: j nowhere\n.end main")

    def test_entry_point_required(self):
        with pytest.raises(AsmError):
            assemble("f: jr $ra")


class TestPseudoIntegration:
    def test_li_large_occupies_two_slots(self):
        program = assemble(
            """
        .ent main, 0
main:   li $t0, 0x12345678
        jr $ra
        .end main
"""
        )
        assert [i.op.name for i in program.text] == ["lui", "ori", "jr"]

    def test_la_gp_relative_for_near_data(self):
        program = assemble(
            """
        .data
x:      .word 5
        .text
        .ent main, 0
main:   la $t0, x
        jr $ra
        .end main
"""
        )
        la = program.text[0]
        assert la.op.name == "addiu" and la.rs == GP
        assert la.imm == program.symbols["x"] - GP_VALUE

    def test_gp_relative_load_operand(self):
        program = assemble(
            """
        .data
x:      .word 5
        .text
        .ent main, 0
main:   lw $t0, x($gp)
        jr $ra
        .end main
"""
        )
        load = program.text[0]
        assert load.op.name == "lw" and load.rs == GP
        assert load.imm == program.symbols["x"] - GP_VALUE

    def test_gp_relative_operand_requires_gp(self):
        with pytest.raises(AsmError):
            assemble(
                """
        .data
x:      .word 5
        .text
        .ent main, 0
main:   lw $t0, x($t1)
        jr $ra
        .end main
"""
            )


class TestImmediateChecks:
    def test_signed_range_enforced(self):
        with pytest.raises(AsmError):
            assemble(".ent main, 0\nmain: addiu $t0, $t0, 40000\njr $ra\n.end main")

    def test_unsigned_range_enforced(self):
        with pytest.raises(AsmError):
            assemble(".ent main, 0\nmain: ori $t0, $t0, -1\njr $ra\n.end main")

    def test_boundary_values_accepted(self):
        assemble(
            ".ent main, 0\nmain: addiu $t0, $t0, -32768\n"
            "ori $t0, $t0, 65535\nsll $t0, $t0, 0\nsra $t0, $t0, 31\njr $ra\n.end main"
        )

    @pytest.mark.parametrize("op", ["sll", "srl", "sra"])
    @pytest.mark.parametrize("amount", [-1, 32])
    def test_shift_amount_range_enforced(self, op, amount):
        with pytest.raises(AsmError, match="shift amount") as excinfo:
            assemble(f".ent main, 0\nmain: {op} $t1, $t0, {amount}\njr $ra\n.end main")
        assert excinfo.value.line == 2


class TestFunctions:
    SOURCE = """
        .text
        .ent main, 0
main:   jal helper
        jr $ra
        .end main
        .ent helper, 2
helper: addu $v0, $a0, $a1
        jr $ra
        .end helper
"""

    def test_function_metadata(self):
        program = assemble(self.SOURCE)
        helper = program.function_by_name("helper")
        assert helper is not None
        assert helper.num_args == 2
        assert helper.size == 2
        assert program.function_by_entry(helper.entry) is helper

    def test_function_at_address(self):
        program = assemble(self.SOURCE)
        helper = program.function_by_name("helper")
        assert program.function_at(helper.entry + 4).name == "helper"
        assert program.function_at(program.entry).name == "main"

    def test_missing_end_rejected(self):
        with pytest.raises(AsmError):
            assemble(".ent main, 0\nmain: jr $ra")

    def test_end_without_ent_rejected(self):
        with pytest.raises(AsmError):
            assemble("main: jr $ra\n.end main")


class TestDisassembly:
    def test_roundtrip_contains_labels(self):
        program = assemble(MINIMAL)
        text = program.disassemble()
        assert "main:" in text and "jr $ra" in text


class TestRareSyntax:
    """Directives and operand forms the compiler never emits."""

    SOURCE = """
# A comment-only line, a .globl in .data, a spaced '- 5' word.
        .data
        .globl vals
        .byte 1
        .align 2
vals:   .word - 5, 7
        .text
        .ent main, 0
main:   la $t0, vals + 8
        lw $t0, -4($t0)
        la $t1, vals - 4
        lw $t1, 4($t1)
        addu $a0, $t0, $t1
        li $v0, 1
        syscall
        li $t2, 3
        bltu $t2, 5, small
        li $a0, 99
        li $v0, 1
        syscall
small:  jr $ra
        .end main
"""

    def test_layout(self):
        program = assemble(self.SOURCE)
        assert program.symbols["vals"] == DATA_BASE + 4  # .align 2 after one byte
        assert program.data[4:8] == (-5 & 0xFFFFFFFF).to_bytes(4, "little")

    def test_runs(self):
        # vals[1] + vals[0] through 'sym + n' and 'sym - n'; 3 <u 5 skips the 99.
        assert run_asm(self.SOURCE).output == "2"


def _in_main(line):
    return f"        .text\n        .ent main, 0\nmain:   {line}\n        jr $ra\n        .end main\n"


def _with_data(lines):
    return f"        .data\n{lines}\n" + _in_main("nop")


class TestMalformedInput:
    """One case per message the assembler, its parser and the pseudo
    expansions raise for bad input."""

    @pytest.mark.parametrize(
        "source, message",
        [
            (".data\nmain: .word 1\n" + _in_main("nop"), "duplicate symbol 'main'"),
            (_with_data("x: .word ("), "bad directive argument '('"),
            (_with_data("x: .word 1\nx: .word 2"), "duplicate symbol 'x'"),
            (_with_data("addu $t0, $t0, $t0"), "instruction in .data segment"),
            (_with_data("s: .asciiz 5"), ".asciiz needs a string"),
            (_with_data("s: .ascii 5"), ".ascii needs a string"),
            (_with_data("x: .quad 5"), "unknown data directive '.quad'"),
            (_with_data("x: .word nowhere"), "undefined symbol 'nowhere' in .word"),
            ("        .text\n        .ent\nmain: jr $ra\n        .end main\n", ".ent needs a function name"),
            ("        .text\n        .ent main, 0\nmain: jr $ra\n        .end\n", ".end needs a function name"),
            (_in_main(".word 5"), "directive '.word' not allowed in .text"),
            (_in_main("frob $t0"), "unknown mnemonic 'frob'"),
            (_in_main("addu $t0, 5, $t1"), "bad operands for 'addu'"),
            (_in_main("addiu $t0, $t1, $t2"), "bad operands for 'addiu'"),
            (_in_main("lw $t0, $t1"), "bad operands for 'lw'"),
            (_in_main("j $t0"), "bad operands for 'j'"),
            (_in_main("sll $t0, $t1, $t2"), "bad operands for 'sll'"),
            (_in_main("beq $t0, 5, main"), "bad operands for 'beq'"),
            (_in_main("jr 5"), "bad operands for 'jr'"),
            (_in_main("addu $t0,"), "unexpected end of line"),
            (_in_main("lw $t0, 4($t1"), "expected ')'"),
            (_in_main("addu $t0, $zz, $t1"), "unknown register '$zz'"),
            (_in_main("addu $t0, ), $t1"), "bad operand ')'"),
            (_in_main("lw $t0, 4(5)"), "expected base register"),
            (_in_main("5"), "expected mnemonic or directive, got '5'"),
            (_in_main("move $t0, 5"), "expected register operand"),
            (_in_main("li $t0, $t1"), "expected immediate operand"),
            (_in_main("la $t0, 5"), "expected symbol operand"),
            (_in_main("blt $t0, 70000, main"), "branch immediate out of 16-bit range"),
        ],
    )
    def test_rejected(self, source, message):
        with pytest.raises(AsmError, match=re.escape(message)):
            assemble(source)
