"""Instruction definitions for the MIPS-I-like ISA.

Every opcode the assembler and simulator understand is declared here as an
:class:`OpcodeInfo` carrying its assembly format and semantic class.  The
semantic class (ALU / load / store / branch / call / ...) is what the
paper's analyses key off: e.g. the repetition tracker treats a load's
output as the loaded value, and the local analysis recognizes ``jal``/
``jr $ra`` as call/return boundaries.

Instructions are represented decoded (:class:`Instruction`), not as raw
bit patterns; encoding-level *constraints* (16-bit immediate fields) are
still enforced by the assembler because they matter to the paper (large
constants must be synthesized with ``lui``/``ori`` sequences, one of the
repetition sources discussed in Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.isa.registers import RA, register_name


class Format:
    """Assembly operand formats (how an instruction is written/parsed)."""

    R3 = "r3"            # op rd, rs, rt
    R3_SHIFTV = "r3sv"   # op rd, rt, rs   (variable shifts)
    SHIFT = "shift"      # op rd, rt, shamt
    I2 = "i2"            # op rt, rs, imm
    LUI = "lui"          # op rt, imm
    MEM = "mem"          # op rt, imm(rs)
    BR2 = "br2"          # op rs, rt, label
    BR1 = "br1"          # op rs, label
    J = "j"              # op label
    JR = "jr"            # op rs
    JALR = "jalr"        # op rd, rs
    MULDIV = "muldiv"    # op rs, rt
    MFHILO = "mfhilo"    # op rd
    BARE = "bare"        # op            (syscall, nop, break)


class Kind:
    """Semantic instruction classes used by the analyses."""

    ALU = "alu"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    JUMP = "jump"          # j
    CALL = "call"          # jal, jalr
    JUMP_REG = "jump_reg"  # jr (return when rs == $ra)
    MULDIV = "muldiv"      # writes hi/lo
    MFHILO = "mfhilo"      # reads hi/lo
    SYSCALL = "syscall"
    NOP = "nop"


@dataclass(frozen=True)
class OpcodeInfo:
    """Static description of one opcode."""

    name: str
    fmt: str
    kind: str
    #: Byte width of the memory access for loads/stores, else 0.
    mem_width: int = 0
    #: Loads: sign-extend the loaded value?
    signed_load: bool = False
    #: Immediate is zero-extended (logical ops) rather than sign-extended.
    unsigned_imm: bool = False
    #: What the opcode computes, as a Python expression: the result (ALU),
    #: the taken condition (branch), the ``(hi, lo)`` pair (mult/div), or
    #: the register read (``hi``/``lo``).  Operands are ``a`` and ``b`` in
    #: :meth:`Instruction.source_registers` order; ``imm``, ``shamt`` and
    #: the names in :data:`BIND_CONSTANTS` are fixed per static
    #: instruction.  The predecoded engine generates its step closures
    #: from these; the reference interpreter spells each opcode out.
    semantics: str = ""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"OpcodeInfo({self.name})"


#: Constants an opcode's ``semantics`` may name besides ``imm`` and
#: ``shamt``, each computed once per static instruction from ``imm``.
BIND_CONSTANTS: "dict[str, str]" = {
    "uimm": "imm & 0xFFFFFFFF",
    "ximm": "(imm & 0xFFFFFFFF) ^ 0x80000000",
    "upper": "(imm << 16) & 0xFFFFFFFF",
}


def _op(name: str, fmt: str, kind: str, **kwargs: object) -> OpcodeInfo:
    return OpcodeInfo(name=name, fmt=fmt, kind=kind, **kwargs)  # type: ignore[arg-type]


#: All real (non-pseudo) opcodes, keyed by mnemonic.
OPCODES: "dict[str, OpcodeInfo]" = {
    info.name: info
    for info in (
        # Three-register ALU.
        _op("add", Format.R3, Kind.ALU, semantics="(a + b) & 0xFFFFFFFF"),
        _op("addu", Format.R3, Kind.ALU, semantics="(a + b) & 0xFFFFFFFF"),
        _op("sub", Format.R3, Kind.ALU, semantics="(a - b) & 0xFFFFFFFF"),
        _op("subu", Format.R3, Kind.ALU, semantics="(a - b) & 0xFFFFFFFF"),
        _op("and", Format.R3, Kind.ALU, semantics="a & b"),
        _op("or", Format.R3, Kind.ALU, semantics="a | b"),
        _op("xor", Format.R3, Kind.ALU, semantics="a ^ b"),
        _op("nor", Format.R3, Kind.ALU, semantics="~(a | b) & 0xFFFFFFFF"),
        _op(
            "slt",
            Format.R3,
            Kind.ALU,
            semantics="1 if (a ^ 0x80000000) < (b ^ 0x80000000) else 0",
        ),
        _op("sltu", Format.R3, Kind.ALU, semantics="1 if a < b else 0"),
        # Variable shifts (rd, rt, rs -- rs holds the shift amount).
        _op("sllv", Format.R3_SHIFTV, Kind.ALU, semantics="(a << (b & 31)) & 0xFFFFFFFF"),
        _op("srlv", Format.R3_SHIFTV, Kind.ALU, semantics="a >> (b & 31)"),
        _op(
            "srav",
            Format.R3_SHIFTV,
            Kind.ALU,
            semantics="a >> (b & 31) if a < 0x80000000"
            " else ((a - 0x100000000) >> (b & 31)) & 0xFFFFFFFF",
        ),
        # Immediate shifts.
        _op("sll", Format.SHIFT, Kind.ALU, semantics="(a << shamt) & 0xFFFFFFFF"),
        _op("srl", Format.SHIFT, Kind.ALU, semantics="a >> shamt"),
        _op(
            "sra",
            Format.SHIFT,
            Kind.ALU,
            semantics="a >> shamt if a < 0x80000000"
            " else ((a - 0x100000000) >> shamt) & 0xFFFFFFFF",
        ),
        # Immediate ALU.
        _op("addi", Format.I2, Kind.ALU, semantics="(a + imm) & 0xFFFFFFFF"),
        _op("addiu", Format.I2, Kind.ALU, semantics="(a + imm) & 0xFFFFFFFF"),
        _op("andi", Format.I2, Kind.ALU, unsigned_imm=True, semantics="a & imm"),
        _op("ori", Format.I2, Kind.ALU, unsigned_imm=True, semantics="a | imm"),
        _op("xori", Format.I2, Kind.ALU, unsigned_imm=True, semantics="a ^ imm"),
        _op("slti", Format.I2, Kind.ALU, semantics="1 if (a ^ 0x80000000) < ximm else 0"),
        _op("sltiu", Format.I2, Kind.ALU, semantics="1 if a < uimm else 0"),
        _op("lui", Format.LUI, Kind.ALU, unsigned_imm=True, semantics="upper"),
        # Multiply / divide and hi/lo moves.
        _op("mult", Format.MULDIV, Kind.MULDIV, semantics="mult32(a, b)"),
        _op("multu", Format.MULDIV, Kind.MULDIV, semantics="multu32(a, b)"),
        _op("div", Format.MULDIV, Kind.MULDIV, semantics="div32(a, b)"),
        _op("divu", Format.MULDIV, Kind.MULDIV, semantics="divu32(a, b)"),
        _op("mfhi", Format.MFHILO, Kind.MFHILO, semantics="hi"),
        _op("mflo", Format.MFHILO, Kind.MFHILO, semantics="lo"),
        # Loads.
        _op("lw", Format.MEM, Kind.LOAD, mem_width=4, signed_load=True),
        _op("lh", Format.MEM, Kind.LOAD, mem_width=2, signed_load=True),
        _op("lhu", Format.MEM, Kind.LOAD, mem_width=2),
        _op("lb", Format.MEM, Kind.LOAD, mem_width=1, signed_load=True),
        _op("lbu", Format.MEM, Kind.LOAD, mem_width=1),
        # Stores.
        _op("sw", Format.MEM, Kind.STORE, mem_width=4),
        _op("sh", Format.MEM, Kind.STORE, mem_width=2),
        _op("sb", Format.MEM, Kind.STORE, mem_width=1),
        # Branches.
        _op("beq", Format.BR2, Kind.BRANCH, semantics="a == b"),
        _op("bne", Format.BR2, Kind.BRANCH, semantics="a != b"),
        _op("blez", Format.BR1, Kind.BRANCH, semantics="a == 0 or a & 0x80000000"),
        _op("bgtz", Format.BR1, Kind.BRANCH, semantics="a and a < 0x80000000"),
        _op("bltz", Format.BR1, Kind.BRANCH, semantics="a & 0x80000000"),
        _op("bgez", Format.BR1, Kind.BRANCH, semantics="a < 0x80000000"),
        # Jumps and calls.
        _op("j", Format.J, Kind.JUMP),
        _op("jal", Format.J, Kind.CALL),
        _op("jr", Format.JR, Kind.JUMP_REG),
        _op("jalr", Format.JALR, Kind.CALL),
        # System.
        _op("syscall", Format.BARE, Kind.SYSCALL),
        _op("nop", Format.BARE, Kind.NOP),
        _op("break", Format.BARE, Kind.SYSCALL),
    )
}


class Instruction:
    """One decoded static instruction.

    Fields not used by an opcode's format are left at their defaults.
    ``imm`` holds the (already sign- or zero-extended) immediate; ``target``
    holds a resolved absolute address for jumps/branches.  ``addr`` is the
    instruction's own address, assigned by the assembler, and ``label`` is
    the original symbolic target, kept for disassembly.
    """

    __slots__ = ("op", "rd", "rs", "rt", "imm", "shamt", "target", "addr", "label")

    def __init__(
        self,
        op: OpcodeInfo,
        rd: int = 0,
        rs: int = 0,
        rt: int = 0,
        imm: int = 0,
        shamt: int = 0,
        target: int = 0,
        addr: int = 0,
        label: Optional[str] = None,
    ) -> None:
        self.op = op
        self.rd = rd
        self.rs = rs
        self.rt = rt
        self.imm = imm
        self.shamt = shamt
        self.target = target
        self.addr = addr
        self.label = label

    @property
    def is_load(self) -> bool:
        return self.op.kind == Kind.LOAD

    @property
    def is_store(self) -> bool:
        return self.op.kind == Kind.STORE

    @property
    def is_return(self) -> bool:
        return self.op.kind == Kind.JUMP_REG and self.rs == RA

    def source_registers(self) -> "tuple[int, ...]":
        """Register indices this instruction reads, in operand order."""
        fmt = self.op.fmt
        if fmt in (Format.R3, Format.BR2, Format.MULDIV):
            return (self.rs, self.rt)
        if fmt == Format.R3_SHIFTV:
            return (self.rt, self.rs)
        if fmt == Format.SHIFT:
            return (self.rt,)
        if fmt in (Format.I2, Format.MEM, Format.BR1, Format.JR, Format.JALR):
            if self.op.kind == Kind.STORE:
                return (self.rt, self.rs)
            return (self.rs,)
        return ()

    def dest_register(self) -> Optional[int]:
        """The general register this instruction writes, if any."""
        fmt = self.op.fmt
        kind = self.op.kind
        if fmt in (Format.R3, Format.R3_SHIFTV, Format.SHIFT, Format.MFHILO):
            return self.rd
        if fmt == Format.JALR:
            return self.rd
        if fmt in (Format.I2, Format.LUI):
            return self.rt
        if kind == Kind.LOAD:
            return self.rt
        if kind == Kind.CALL and fmt == Format.J:
            return RA
        return None

    def disassemble(self) -> str:
        """Render the instruction back to assembly text."""
        op, fmt = self.op, self.op.fmt
        rd, rs, rt = register_name(self.rd), register_name(self.rs), register_name(self.rt)
        target = self.label if self.label is not None else hex(self.target)
        if fmt == Format.R3:
            return f"{op.name} {rd}, {rs}, {rt}"
        if fmt == Format.R3_SHIFTV:
            return f"{op.name} {rd}, {rt}, {rs}"
        if fmt == Format.SHIFT:
            return f"{op.name} {rd}, {rt}, {self.shamt}"
        if fmt == Format.I2:
            return f"{op.name} {rt}, {rs}, {self.imm}"
        if fmt == Format.LUI:
            return f"{op.name} {rt}, {self.imm}"
        if fmt == Format.MEM:
            return f"{op.name} {rt}, {self.imm}({rs})"
        if fmt == Format.BR2:
            return f"{op.name} {rs}, {rt}, {target}"
        if fmt == Format.BR1:
            return f"{op.name} {rs}, {target}"
        if fmt == Format.J:
            return f"{op.name} {target}"
        if fmt == Format.JR:
            return f"{op.name} {rs}"
        if fmt == Format.JALR:
            return f"{op.name} {rd}, {rs}"
        if fmt == Format.MULDIV:
            return f"{op.name} {rs}, {rt}"
        if fmt == Format.MFHILO:
            return f"{op.name} {rd}"
        return op.name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Instruction {hex(self.addr)}: {self.disassemble()}>"


#: The instruction may appear inside a straight-line run.
BOUNDARY_NONE = 0
#: The instruction ends a straight-line run and belongs to it (branch/jump).
BOUNDARY_END = 1
#: The instruction may not appear in a run at all (call/return/syscall).
BOUNDARY_EXCLUDE = 2


def boundary_kind(instr: Instruction) -> int:
    """How ``instr`` bounds a straight-line run (``BOUNDARY_*``).

    Branches, ``j`` and computed ``jr`` end a run: their outcome depends
    only on the registers they read.  Calls, returns and syscalls raise
    events the simulator must deliver, so a run stops before them.
    Table 10T's traces and the predecoded engine's chains are cut here.
    """
    kind = instr.op.kind
    if kind is Kind.BRANCH or kind is Kind.JUMP:
        return BOUNDARY_END
    if kind is Kind.JUMP_REG:
        return BOUNDARY_EXCLUDE if instr.rs == RA else BOUNDARY_END
    if kind is Kind.CALL or kind is Kind.SYSCALL:
        return BOUNDARY_EXCLUDE
    return BOUNDARY_NONE
