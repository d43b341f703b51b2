"""Disassembly round trips: ``Instruction.disassemble`` text reassembles
to the same instruction.

Traces, golden files and examples print instructions through
:meth:`Instruction.disassemble`; these tests pin that the text is exact
by feeding it back through the assembler.  The strongest check is the
whole-program one: every workload's text segment, rendered with its
labels and ``.ent``/``.end`` markers, reassembles to structurally
identical instructions at the same addresses.
"""

from __future__ import annotations

import pytest

from repro.asm import Program, assemble
from repro.isa.convention import TEXT_BASE
from repro.isa.instructions import Instruction, OPCODES
from repro.isa.registers import A0, RA, SP, T0, T1, T2, V0
from repro.workloads import WORKLOAD_ORDER, get_workload

PC = TEXT_BASE


def fields(instr: Instruction) -> tuple:
    return (
        instr.addr,
        instr.op.name,
        instr.rd,
        instr.rs,
        instr.rt,
        instr.imm,
        instr.shamt,
        instr.target,
    )


def reassemble_one(instr: Instruction) -> Instruction:
    """Assemble ``instr``'s disassembly as the first instruction of main."""
    program = assemble(
        f".ent main, 0\nmain:   {instr.disassemble()}\n        jr $ra\n.end main\n"
    )
    return program.text[0]


def reassemble(program: Program) -> Program:
    """Render ``program``'s text segment as source and assemble it."""
    labels = {}
    for name, address in program.symbols.items():
        if program.text_base <= address < program.text_end:
            labels.setdefault(address, []).append(name)
    entries = {f.entry: f for f in program.functions}
    ends = {f.end: f for f in program.functions}
    lines = [".text"]
    for address in [i.addr for i in program.text] + [program.text_end]:
        if address in ends:
            lines.append(f".end {ends[address].name}")
        if address == program.text_end:
            break
        if address in entries:
            function = entries[address]
            lines.append(f".ent {function.name}, {function.num_args}")
        lines.extend(f"{name}:" for name in labels.get(address, ()))
        lines.append("        " + program.instruction_at(address).disassemble())
    return assemble("\n".join(lines))


class TestInstructionRoundTrips:
    CASES = [
        Instruction(OPCODES["addu"], rd=T0, rs=T1, rt=T2, addr=PC),
        Instruction(OPCODES["subu"], rd=T2, rs=T0, rt=T1, addr=PC),
        Instruction(OPCODES["sll"], rd=T0, rt=T1, shamt=31, addr=PC),
        Instruction(OPCODES["srav"], rd=T0, rt=T1, rs=T2, addr=PC),
        Instruction(OPCODES["addiu"], rt=T0, rs=T1, imm=-32768, addr=PC),
        Instruction(OPCODES["ori"], rt=T0, rs=T1, imm=0xFFFF, addr=PC),
        Instruction(OPCODES["lui"], rt=T0, imm=0x1234, addr=PC),
        Instruction(OPCODES["lw"], rt=T0, rs=SP, imm=124, addr=PC),
        Instruction(OPCODES["sb"], rt=T0, rs=T1, imm=-1, addr=PC),
        Instruction(OPCODES["beq"], rs=T0, rt=T1, target=PC + 32, addr=PC),
        Instruction(OPCODES["bne"], rs=T0, rt=T1, target=PC - 400, addr=PC),
        Instruction(OPCODES["blez"], rs=T0, target=PC + 8, addr=PC),
        Instruction(OPCODES["bgez"], rs=T0, target=PC + 4, addr=PC),
        Instruction(OPCODES["bltz"], rs=A0, target=PC - 64, addr=PC),
        Instruction(OPCODES["j"], target=0x00400100, addr=PC),
        Instruction(OPCODES["jal"], target=0x00400200, addr=PC),
        Instruction(OPCODES["jr"], rs=RA, addr=PC),
        Instruction(OPCODES["jalr"], rd=RA, rs=T0, addr=PC),
        Instruction(OPCODES["mult"], rs=T0, rt=T1, addr=PC),
        Instruction(OPCODES["divu"], rs=T0, rt=T1, addr=PC),
        Instruction(OPCODES["mfhi"], rd=T0, addr=PC),
        Instruction(OPCODES["mflo"], rd=V0, addr=PC),
        Instruction(OPCODES["syscall"], addr=PC),
        Instruction(OPCODES["nop"], addr=PC),
    ]

    @pytest.mark.parametrize("instr", CASES, ids=lambda i: i.disassemble())
    def test_roundtrip(self, instr):
        assert fields(reassemble_one(instr)) == fields(instr), instr.disassemble()


class TestProgramRoundTrip:
    def test_assembled_program_roundtrips(self):
        program = assemble(
            """
        .data
v:      .word 7
        .text
        .ent main, 0
main:   addiu $sp, $sp, -16
        sw $ra, 12($sp)
        li $t0, 0x12345678
        la $t1, v
        lw $t2, 0($t1)
loop:   addiu $t2, $t2, -1
        bgtz $t2, loop
        jal helper
        lw $ra, 12($sp)
        addiu $sp, $sp, 16
        jr $ra
        .end main
        .ent helper, 0
helper: li $v0, 1
        move $a0, $zero
        syscall
        jr $ra
        .end helper
"""
        )
        recovered = reassemble(program)
        assert recovered.functions == program.functions
        assert [fields(i) for i in recovered.text] == [fields(i) for i in program.text]

    @pytest.mark.parametrize("name", WORKLOAD_ORDER)
    def test_workload_text_roundtrips(self, name):
        program = get_workload(name).program()
        recovered = reassemble(program)
        assert recovered.functions == program.functions
        mismatches = [
            (a.disassemble(), b.disassemble())
            for a, b in zip(program.text, recovered.text)
            if fields(a) != fields(b)
        ]
        assert not mismatches
        assert len(recovered.text) == len(program.text)
