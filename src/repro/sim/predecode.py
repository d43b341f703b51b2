"""Predecoded execution engine: static instructions -> step closures.

The reference interpreter in :mod:`repro.sim.simulator` re-derives
everything about an instruction on every dynamic instance: it chains
string comparisons on the opcode name, re-reads format/kind/width
attributes, and re-normalizes immediates.  For the paper-scale windows
(hundreds of thousands of retired instructions) that per-step decode
dominates simulation time.

This module compiles each *static* instruction once into a specialized
Python closure with every compile-time-constant decision already taken:

* operand register indices, immediates (and their sign/zero-extended
  variants), branch targets, and the fall-through pc are captured as
  closure constants;
* writes to ``$zero`` are dropped at compile time;
* memory closures inline the sparse-page access of
  :class:`~repro.sim.memory.Memory` (page dict lookup + slice) instead of
  going through two method calls per access.

Compilation is two-stage so the per-``Program`` work is shared between
simulators:

1. :func:`predecode` (cached per program, weakly) pairs every
   instruction with two closure *factories*;
2. :func:`bind_fast` / :func:`bind_full` bind the factories to one
   simulator's register file / memory / syscall handler.

Two closure flavors exist because the simulator has two execution modes:

* **fast** closures (``() -> next_pc``) mutate machine state and return
  the next pc; used during warm-up and whenever no analyzer consumes
  :class:`~repro.sim.events.StepRecord` objects.  Control-transfer
  instructions that must emit events return a tuple
  ``(next_pc, CTRL_*, ...)`` instead of a bare int — the run loop
  distinguishes the two with a single ``type(r) is int`` check.
* **full** closures (``(index) -> (StepRecord, next_pc, ctrl)``) also
  build the step record the analyzers see, with semantics identical to
  the reference interpreter (the differential tests lock this down).

Control tuples carried by both flavors:

* ``(next_pc, CTRL_CALL, target, return_addr)`` / ``('call', target,
  return_addr)`` for ``jal``/``jalr``;
* ``(next_pc, CTRL_RETURN, target)`` / ``('return', target)`` for
  ``jr $ra``;
* ``(next_pc, CTRL_SYSCALL, service, arg, result, halt)`` /
  ``('syscall', service, arg, result, halt)`` for ``syscall``/``break``.
"""

from __future__ import annotations

import weakref
from typing import Callable, List, Tuple

from repro.asm.program import Program
from repro.isa import bits
from repro.isa.instructions import Format, Instruction, Kind
from repro.isa.registers import A0, RA, V0
from repro.sim.errors import SimError
from repro.sim.events import StepRecord
from repro.sim.memory import PAGE_MASK, PAGE_SHIFT

#: Control markers carried in the tuples returned by control closures.
#: Compared with ``is`` against these exact objects.
CTRL_CALL = "call"
CTRL_RETURN = "return"
CTRL_SYSCALL = "syscall"

_M = 0xFFFFFFFF
_SIGN = 0x80000000
_TWO32 = 0x100000000

_EMPTY: Tuple[int, ...] = ()

#: ``(make_fast, make_full)`` per static instruction.
_Spec = Tuple[Callable, Callable]

# Keyed by id() because Program is an unhashable dataclass; the
# weakref.finalize evicts the entry when the program is collected, before
# its id can be reused.
_PREDECODED: "dict[int, List[_Spec]]" = {}


def predecode(program: Program) -> List[_Spec]:
    """Stage 1: compile every instruction to closure factories (cached)."""
    key = id(program)
    specs = _PREDECODED.get(key)
    if specs is None:
        specs = [_compile(instr) for instr in program.text]
        _PREDECODED[key] = specs
        weakref.finalize(program, _PREDECODED.pop, key, None)
    return specs


def bind_fast(sim) -> List[Callable[[], object]]:
    """Stage 2: bind the fast closures to one simulator's state."""
    return [make_fast(sim) for make_fast, _ in predecode(sim.program)]


def bind_full(sim) -> List[Callable[[int], tuple]]:
    """Stage 2: bind the record-building closures to one simulator."""
    return [make_full(sim) for _, make_full in predecode(sim.program)]


# ---------------------------------------------------------------------------
# ALU evaluation tables (full closures share these; fast closures are
# specialized per opcode below so the hot path stays a single call).
# ---------------------------------------------------------------------------

_I2_EVAL = {
    "addiu": lambda a, imm: (a + imm) & _M,
    "addi": lambda a, imm: (a + imm) & _M,
    "andi": lambda a, imm: a & imm,
    "ori": lambda a, imm: a | imm,
    "xori": lambda a, imm: a ^ imm,
    "slti": lambda a, imm: 1 if bits.to_s32(a) < imm else 0,
    "sltiu": lambda a, imm: 1 if a < (imm & _M) else 0,
}

_R3_EVAL = {
    "add": lambda a, b: (a + b) & _M,
    "addu": lambda a, b: (a + b) & _M,
    "sub": lambda a, b: (a - b) & _M,
    "subu": lambda a, b: (a - b) & _M,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "nor": lambda a, b: (~(a | b)) & _M,
    "slt": lambda a, b: 1 if (a ^ _SIGN) < (b ^ _SIGN) else 0,
    "sltu": lambda a, b: 1 if a < b else 0,
}

_SHIFT_EVAL = {
    "sll": lambda v, s: (v << s) & _M,
    "srl": lambda v, s: v >> s,
    "sra": bits.sra32,
}

_SHIFTV_EVAL = {
    "sllv": lambda v, a: (v << (a & 31)) & _M,
    "srlv": lambda v, a: v >> (a & 31),
    "srav": bits.sra32,
}

_MULDIV_EVAL = {
    "mult": bits.mult32,
    "multu": bits.multu32,
    "div": bits.div32,
    "divu": bits.divu32,
}


# ---------------------------------------------------------------------------
# Per-format compilers
# ---------------------------------------------------------------------------


def _compile(instr: Instruction) -> _Spec:
    op = instr.op
    fmt = op.fmt
    kind = op.kind
    if fmt == Format.I2:
        return _compile_i2(instr)
    if kind == Kind.LOAD:
        return _compile_load(instr)
    if kind == Kind.STORE:
        return _compile_store(instr)
    if fmt == Format.R3:
        return _compile_r3(instr)
    if fmt == Format.SHIFT:
        return _compile_shift(instr)
    if fmt == Format.R3_SHIFTV:
        return _compile_shiftv(instr)
    if kind == Kind.BRANCH:
        return _compile_branch(instr)
    if fmt == Format.LUI:
        return _compile_lui(instr)
    if kind == Kind.JUMP:
        return _compile_jump(instr)
    if kind == Kind.CALL:
        return _compile_call(instr)
    if kind == Kind.JUMP_REG:
        return _compile_jump_reg(instr)
    if kind == Kind.MULDIV:
        return _compile_muldiv(instr)
    if kind == Kind.MFHILO:
        return _compile_mfhilo(instr)
    if kind == Kind.SYSCALL:
        return _compile_syscall(instr)
    if kind == Kind.NOP:
        return _compile_nop(instr)
    return _compile_unimplemented(instr)


def _compile_i2(instr: Instruction) -> _Spec:
    name = instr.op.name
    rt, rs, imm = instr.rt, instr.rs, instr.imm
    addr = instr.addr
    next_pc = addr + 4
    evaluate = _I2_EVAL[name]

    def make_fast(sim):
        regs = sim.regs
        if rt == 0:
            # Result discarded; ALU ops have no other side effects.
            return lambda: next_pc
        if name == "addiu" or name == "addi":
            def step():
                regs[rt] = (regs[rs] + imm) & _M
                return next_pc
        elif name == "andi":
            def step():
                regs[rt] = regs[rs] & imm
                return next_pc
        elif name == "ori":
            def step():
                regs[rt] = regs[rs] | imm
                return next_pc
        elif name == "xori":
            def step():
                regs[rt] = regs[rs] ^ imm
                return next_pc
        elif name == "slti":
            ximm = (imm & _M) ^ _SIGN
            def step():
                regs[rt] = 1 if (regs[rs] ^ _SIGN) < ximm else 0
                return next_pc
        else:  # sltiu
            uimm = imm & _M
            def step():
                regs[rt] = 1 if regs[rs] < uimm else 0
                return next_pc
        return step

    def make_full(sim):
        regs = sim.regs
        def step(n):
            a = regs[rs]
            result = evaluate(a, imm)
            if rt:
                regs[rt] = result
            return (
                StepRecord(n, addr, instr, (a,), (result,), rt, result, None, None),
                next_pc,
                None,
            )
        return step

    return make_fast, make_full


def _compile_load(instr: Instruction) -> _Spec:
    op = instr.op
    rt, rs, imm = instr.rt, instr.rs, instr.imm
    addr = instr.addr
    next_pc = addr + 4
    width = op.mem_width
    signed = op.signed_load

    def make_fast(sim):
        regs = sim.regs
        pages = sim.memory._pages
        page_for = sim.memory._page
        if width == 4:
            def step():
                address = (regs[rs] + imm) & _M
                if address & 3:
                    raise SimError(f"unaligned word read at {address:#010x}")
                page = pages.get(address >> PAGE_SHIFT)
                if page is None:
                    page = page_for(address)
                offset = address & PAGE_MASK
                value = int.from_bytes(page[offset : offset + 4], "little")
                if rt:
                    regs[rt] = value
                return next_pc
        elif width == 2:
            def step():
                address = (regs[rs] + imm) & _M
                if address & 1:
                    raise SimError(f"unaligned halfword read at {address:#010x}")
                page = pages.get(address >> PAGE_SHIFT)
                if page is None:
                    page = page_for(address)
                offset = address & PAGE_MASK
                value = int.from_bytes(page[offset : offset + 2], "little")
                if signed and value >= 0x8000:
                    value += 0xFFFF0000
                if rt:
                    regs[rt] = value
                return next_pc
        else:
            def step():
                address = (regs[rs] + imm) & _M
                page = pages.get(address >> PAGE_SHIFT)
                if page is None:
                    page = page_for(address)
                value = page[address & PAGE_MASK]
                if signed and value >= 0x80:
                    value += 0xFFFFFF00
                if rt:
                    regs[rt] = value
                return next_pc
        return step

    def make_full(sim):
        regs = sim.regs
        memory = sim.memory
        if width == 4:
            read = memory.read_word
        elif width == 2:
            read = memory.read_half
        else:
            read = memory.read_byte
        def step(n):
            base = regs[rs]
            address = (base + imm) & _M
            value = read(address)
            if signed:
                if width == 2:
                    value = bits.to_u32(bits.to_s16(value))
                elif width == 1:
                    value = bits.to_u32(bits.to_s8(value))
            if rt:
                regs[rt] = value
            return (
                StepRecord(n, addr, instr, (base,), (value,), rt, value, address, None),
                next_pc,
                None,
            )
        return step

    return make_fast, make_full


def _compile_store(instr: Instruction) -> _Spec:
    rt, rs, imm = instr.rt, instr.rs, instr.imm
    addr = instr.addr
    next_pc = addr + 4
    width = instr.op.mem_width

    def make_fast(sim):
        regs = sim.regs
        pages = sim.memory._pages
        page_for = sim.memory._page
        if width == 4:
            def step():
                address = (regs[rs] + imm) & _M
                if address & 3:
                    raise SimError(f"unaligned word write at {address:#010x}")
                page = pages.get(address >> PAGE_SHIFT)
                if page is None:
                    page = page_for(address)
                offset = address & PAGE_MASK
                page[offset : offset + 4] = (regs[rt] & _M).to_bytes(4, "little")
                return next_pc
        elif width == 2:
            def step():
                address = (regs[rs] + imm) & _M
                if address & 1:
                    raise SimError(f"unaligned halfword write at {address:#010x}")
                page = pages.get(address >> PAGE_SHIFT)
                if page is None:
                    page = page_for(address)
                offset = address & PAGE_MASK
                page[offset : offset + 2] = (regs[rt] & 0xFFFF).to_bytes(2, "little")
                return next_pc
        else:
            def step():
                address = (regs[rs] + imm) & _M
                page = pages.get(address >> PAGE_SHIFT)
                if page is None:
                    page = page_for(address)
                page[address & PAGE_MASK] = regs[rt] & 0xFF
                return next_pc
        return step

    def make_full(sim):
        regs = sim.regs
        memory = sim.memory
        if width == 4:
            write = memory.write_word
        elif width == 2:
            write = memory.write_half
        else:
            write = memory.write_byte
        def step(n):
            data = regs[rt]
            base = regs[rs]
            address = (base + imm) & _M
            write(address, data)
            return (
                StepRecord(
                    n, addr, instr, (data, base), _EMPTY, None, 0, address, data
                ),
                next_pc,
                None,
            )
        return step

    return make_fast, make_full


def _compile_r3(instr: Instruction) -> _Spec:
    name = instr.op.name
    rd, rs, rt = instr.rd, instr.rs, instr.rt
    addr = instr.addr
    next_pc = addr + 4
    evaluate = _R3_EVAL[name]

    def make_fast(sim):
        regs = sim.regs
        if rd == 0:
            return lambda: next_pc
        if name == "addu" or name == "add":
            def step():
                regs[rd] = (regs[rs] + regs[rt]) & _M
                return next_pc
        elif name == "subu" or name == "sub":
            def step():
                regs[rd] = (regs[rs] - regs[rt]) & _M
                return next_pc
        elif name == "and":
            def step():
                regs[rd] = regs[rs] & regs[rt]
                return next_pc
        elif name == "or":
            def step():
                regs[rd] = regs[rs] | regs[rt]
                return next_pc
        elif name == "xor":
            def step():
                regs[rd] = regs[rs] ^ regs[rt]
                return next_pc
        elif name == "nor":
            def step():
                regs[rd] = (~(regs[rs] | regs[rt])) & _M
                return next_pc
        elif name == "slt":
            def step():
                regs[rd] = 1 if (regs[rs] ^ _SIGN) < (regs[rt] ^ _SIGN) else 0
                return next_pc
        else:  # sltu
            def step():
                regs[rd] = 1 if regs[rs] < regs[rt] else 0
                return next_pc
        return step

    def make_full(sim):
        regs = sim.regs
        def step(n):
            a = regs[rs]
            b = regs[rt]
            result = evaluate(a, b)
            if rd:
                regs[rd] = result
            return (
                StepRecord(n, addr, instr, (a, b), (result,), rd, result, None, None),
                next_pc,
                None,
            )
        return step

    return make_fast, make_full


def _compile_shift(instr: Instruction) -> _Spec:
    name = instr.op.name
    rd, rt, shamt = instr.rd, instr.rt, instr.shamt
    addr = instr.addr
    next_pc = addr + 4
    evaluate = _SHIFT_EVAL[name]

    def make_fast(sim):
        regs = sim.regs
        if rd == 0:
            return lambda: next_pc
        if name == "sll":
            def step():
                regs[rd] = (regs[rt] << shamt) & _M
                return next_pc
        elif name == "srl":
            def step():
                regs[rd] = regs[rt] >> shamt
                return next_pc
        else:  # sra
            s = shamt & 31
            def step():
                v = regs[rt]
                regs[rd] = v >> s if v < _SIGN else ((v - _TWO32) >> s) & _M
                return next_pc
        return step

    def make_full(sim):
        regs = sim.regs
        def step(n):
            value = regs[rt]
            result = evaluate(value, shamt)
            if rd:
                regs[rd] = result
            return (
                StepRecord(n, addr, instr, (value,), (result,), rd, result, None, None),
                next_pc,
                None,
            )
        return step

    return make_fast, make_full


def _compile_shiftv(instr: Instruction) -> _Spec:
    name = instr.op.name
    rd, rs, rt = instr.rd, instr.rs, instr.rt
    addr = instr.addr
    next_pc = addr + 4
    evaluate = _SHIFTV_EVAL[name]

    def make_fast(sim):
        regs = sim.regs
        if rd == 0:
            return lambda: next_pc
        if name == "sllv":
            def step():
                regs[rd] = (regs[rt] << (regs[rs] & 31)) & _M
                return next_pc
        elif name == "srlv":
            def step():
                regs[rd] = regs[rt] >> (regs[rs] & 31)
                return next_pc
        else:  # srav
            def step():
                s = regs[rs] & 31
                v = regs[rt]
                regs[rd] = v >> s if v < _SIGN else ((v - _TWO32) >> s) & _M
                return next_pc
        return step

    def make_full(sim):
        regs = sim.regs
        def step(n):
            value = regs[rt]
            amount = regs[rs]
            result = evaluate(value, amount)
            if rd:
                regs[rd] = result
            return (
                StepRecord(
                    n, addr, instr, (value, amount), (result,), rd, result, None, None
                ),
                next_pc,
                None,
            )
        return step

    return make_fast, make_full


def _compile_branch(instr: Instruction) -> _Spec:
    name = instr.op.name
    rs, rt = instr.rs, instr.rt
    target = instr.target
    addr = instr.addr
    next_pc = addr + 4
    two_reg = instr.op.fmt == Format.BR2

    def make_fast(sim):
        regs = sim.regs
        if name == "beq":
            def step():
                return target if regs[rs] == regs[rt] else next_pc
        elif name == "bne":
            def step():
                return target if regs[rs] != regs[rt] else next_pc
        elif name == "blez":
            def step():
                a = regs[rs]
                return target if a == 0 or a & _SIGN else next_pc
        elif name == "bgtz":
            def step():
                a = regs[rs]
                return target if a and a < _SIGN else next_pc
        elif name == "bltz":
            def step():
                return target if regs[rs] & _SIGN else next_pc
        else:  # bgez
            def step():
                return target if regs[rs] < _SIGN else next_pc
        return step

    def make_full(sim):
        regs = sim.regs
        if two_reg:
            equal = name == "beq"
            def step(n):
                a = regs[rs]
                b = regs[rt]
                taken = (a == b) if equal else (a != b)
                return (
                    StepRecord(
                        n, addr, instr, (a, b), (1,) if taken else (0,), None, 0, None, None
                    ),
                    target if taken else next_pc,
                    None,
                )
        else:
            def step(n):
                a = regs[rs]
                signed = bits.to_s32(a)
                if name == "blez":
                    taken = signed <= 0
                elif name == "bgtz":
                    taken = signed > 0
                elif name == "bltz":
                    taken = signed < 0
                else:  # bgez
                    taken = signed >= 0
                return (
                    StepRecord(
                        n, addr, instr, (a,), (1,) if taken else (0,), None, 0, None, None
                    ),
                    target if taken else next_pc,
                    None,
                )
        return step

    return make_fast, make_full


def _compile_lui(instr: Instruction) -> _Spec:
    rt = instr.rt
    addr = instr.addr
    next_pc = addr + 4
    result = (instr.imm << 16) & _M

    def make_fast(sim):
        regs = sim.regs
        if rt == 0:
            return lambda: next_pc
        def step():
            regs[rt] = result
            return next_pc
        return step

    def make_full(sim):
        regs = sim.regs
        def step(n):
            if rt:
                regs[rt] = result
            return (
                StepRecord(n, addr, instr, _EMPTY, (result,), rt, result, None, None),
                next_pc,
                None,
            )
        return step

    return make_fast, make_full


def _compile_jump(instr: Instruction) -> _Spec:
    target = instr.target
    addr = instr.addr

    def make_fast(sim):
        return lambda: target

    def make_full(sim):
        def step(n):
            return (
                StepRecord(n, addr, instr, _EMPTY, _EMPTY, None, 0, None, None),
                target,
                None,
            )
        return step

    return make_fast, make_full


def _compile_call(instr: Instruction) -> _Spec:
    addr = instr.addr
    return_addr = addr + 4
    if instr.op.fmt == Format.J:  # jal
        target = instr.target

        def make_fast(sim):
            regs = sim.regs
            def step():
                regs[RA] = return_addr
                return (target, CTRL_CALL, target, return_addr)
            return step

        def make_full(sim):
            regs = sim.regs
            def step(n):
                regs[RA] = return_addr
                return (
                    StepRecord(n, addr, instr, _EMPTY, _EMPTY, RA, return_addr, None, None),
                    target,
                    (CTRL_CALL, target, return_addr),
                )
            return step

        return make_fast, make_full

    # jalr
    rd, rs = instr.rd, instr.rs

    def make_fast(sim):
        regs = sim.regs
        def step():
            target = regs[rs]
            if rd:
                regs[rd] = return_addr
            return (target, CTRL_CALL, target, return_addr)
        return step

    def make_full(sim):
        regs = sim.regs
        def step(n):
            target = regs[rs]
            if rd:
                regs[rd] = return_addr
            return (
                StepRecord(n, addr, instr, (target,), _EMPTY, rd, return_addr, None, None),
                target,
                (CTRL_CALL, target, return_addr),
            )
        return step

    return make_fast, make_full


def _compile_jump_reg(instr: Instruction) -> _Spec:
    rs = instr.rs
    addr = instr.addr
    is_return = rs == RA

    def make_fast(sim):
        regs = sim.regs
        if is_return:
            def step():
                target = regs[rs]
                return (target, CTRL_RETURN, target)
        else:
            def step():
                return regs[rs]
        return step

    def make_full(sim):
        regs = sim.regs
        def step(n):
            target = regs[rs]
            return (
                StepRecord(n, addr, instr, (target,), _EMPTY, None, 0, None, None),
                target,
                (CTRL_RETURN, target) if is_return else None,
            )
        return step

    return make_fast, make_full


def _compile_muldiv(instr: Instruction) -> _Spec:
    rs, rt = instr.rs, instr.rt
    addr = instr.addr
    next_pc = addr + 4
    evaluate = _MULDIV_EVAL[instr.op.name]

    def make_fast(sim):
        regs = sim.regs
        def step():
            sim.hi, sim.lo = evaluate(regs[rs], regs[rt])
            return next_pc
        return step

    def make_full(sim):
        regs = sim.regs
        def step(n):
            a = regs[rs]
            b = regs[rt]
            hi, lo = evaluate(a, b)
            sim.hi, sim.lo = hi, lo
            return (
                StepRecord(n, addr, instr, (a, b), (hi, lo), None, 0, None, None),
                next_pc,
                None,
            )
        return step

    return make_fast, make_full


def _compile_mfhilo(instr: Instruction) -> _Spec:
    rd = instr.rd
    addr = instr.addr
    next_pc = addr + 4
    from_hi = instr.op.name == "mfhi"

    def make_fast(sim):
        regs = sim.regs
        if rd == 0:
            return lambda: next_pc
        if from_hi:
            def step():
                regs[rd] = sim.hi
                return next_pc
        else:
            def step():
                regs[rd] = sim.lo
                return next_pc
        return step

    def make_full(sim):
        regs = sim.regs
        def step(n):
            value = sim.hi if from_hi else sim.lo
            if rd:
                regs[rd] = value
            return (
                StepRecord(n, addr, instr, (value,), (value,), rd, value, None, None),
                next_pc,
                None,
            )
        return step

    return make_fast, make_full


def _compile_syscall(instr: Instruction) -> _Spec:
    addr = instr.addr
    next_pc = addr + 4

    def make_fast(sim):
        regs = sim.regs
        memory = sim.memory
        handle = sim.syscalls.handle
        def step():
            service = regs[V0]
            arg = regs[A0]
            result, halt = handle(service, arg, memory)
            if result is not None:
                regs[V0] = result
            return (next_pc, CTRL_SYSCALL, service, arg, result, halt)
        return step

    def make_full(sim):
        regs = sim.regs
        memory = sim.memory
        handle = sim.syscalls.handle
        def step(n):
            service = regs[V0]
            arg = regs[A0]
            result, halt = handle(service, arg, memory)
            if result is not None:
                regs[V0] = result
                record = StepRecord(
                    n, addr, instr, (service, arg), (result,), V0, result, None, None
                )
            else:
                record = StepRecord(
                    n, addr, instr, (service, arg), _EMPTY, None, 0, None, None
                )
            return record, next_pc, (CTRL_SYSCALL, service, arg, result, halt)
        return step

    return make_fast, make_full


def _compile_nop(instr: Instruction) -> _Spec:
    addr = instr.addr
    next_pc = addr + 4

    def make_fast(sim):
        return lambda: next_pc

    def make_full(sim):
        def step(n):
            return (
                StepRecord(n, addr, instr, _EMPTY, _EMPTY, None, 0, None, None),
                next_pc,
                None,
            )
        return step

    return make_fast, make_full


def _compile_unimplemented(instr: Instruction) -> _Spec:  # pragma: no cover
    name = instr.op.name
    addr = instr.addr

    def make_fast(sim):
        def step():
            raise SimError(f"unimplemented opcode {name}", addr)
        return step

    def make_full(sim):
        def step(n):
            raise SimError(f"unimplemented opcode {name}", addr)
        return step

    return make_fast, make_full


# ----------------------------------------------------------------------
# Telemetry: counted bindings
# ----------------------------------------------------------------------

#: Index into the kind-count cell list used by counted bindings.
COUNT_BRANCHES = 0
COUNT_MEMOPS = 1
COUNT_KINDS = 2


def _count_class(instr: Instruction):
    """Which telemetry cell (if any) a dynamic instance increments."""
    kind = instr.op.kind
    if kind is Kind.BRANCH:
        return COUNT_BRANCHES
    if kind is Kind.LOAD or kind is Kind.STORE:
        return COUNT_MEMOPS
    return None


def _wrap_counted(code: list, program: Program, counts, full: bool) -> list:
    """Wrap only the closures whose kind is counted (branches, memops).

    ALU/jump/syscall closures are untouched, so the metrics-enabled hot
    loop pays one extra call frame on ~a quarter of retired instructions
    and nothing on the rest — measured well inside the 5% overhead
    budget on the bare-throughput benchmark.
    """
    wrapped = list(code)
    for index, instr in enumerate(program.text):
        cell = _count_class(instr)
        if cell is None:
            continue
        inner = code[index]
        if full:

            def step_full(n, _inner=inner, _counts=counts, _cell=cell):
                _counts[_cell] += 1
                return _inner(n)

            wrapped[index] = step_full
        else:

            def step_fast(_inner=inner, _counts=counts, _cell=cell):
                _counts[_cell] += 1
                return _inner()

            wrapped[index] = step_fast
    return wrapped


def bind_fast_counted(sim, counts) -> List[Callable[[], object]]:
    """:func:`bind_fast` plus per-kind dynamic counting into ``counts``."""
    return _wrap_counted(bind_fast(sim), sim.program, counts, full=False)


def bind_full_counted(sim, counts) -> List[Callable[[int], tuple]]:
    """:func:`bind_full` plus per-kind dynamic counting into ``counts``."""
    return _wrap_counted(bind_full(sim), sim.program, counts, full=True)
