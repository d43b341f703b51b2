"""Trace data model: boundaries, instruction classes, and the entry itself.

A *trace* is a straight-line fragment of the dynamic instruction stream
together with everything needed to decide whether re-executing it would
be redundant: its live-in registers, memory words, and hi/lo values.
This is the trace-level analogue of the paper's per-instruction reuse
buffer entry, following Coppieters et al.'s trace-reuse formulation (see
PAPERS.md).  Table 10T only counts reuse, so a trace keeps no live-outs.

Boundary rules
--------------

Traces are cut from the stream at control and side-effect boundaries:

* branches, ``j``, and computed ``jr`` (non-return) *end* a trace and are
  part of it — their outcome is a pure function of the trace's live-ins,
  so a live-in match means the whole trace repeats;
* calls (``jal``/``jalr``), returns (``jr $ra``), and syscalls are
  *excluded*: they raise events the simulator must deliver (and syscalls
  touch external state), so a trace always ends before them.

Every instruction of a trace but the last falls through, so a trace is
the run of static instructions ``start_pc, start_pc + 4, ...``.  The
rule itself, :func:`~repro.isa.instructions.boundary_kind`, lives with
the instruction set because the predecoded engine cuts its chains at
the same boundaries (:func:`repro.sim.predecode.chain`).

The numeric constants here are compared with ``is``/``==`` in hot loops;
keep them small ints.
"""

from __future__ import annotations

from typing import Tuple

from repro.isa.instructions import (  # noqa: F401  (the boundary rule is re-exported)
    BOUNDARY_END,
    BOUNDARY_EXCLUDE,
    BOUNDARY_NONE,
    Instruction,
    Kind,
    boundary_kind,
)

#: Instruction-class taxonomy for the Coppieters-style decomposition of
#: trace-covered instructions (Table 10T's class panel).
CLASS_ALU = 0
CLASS_LOAD = 1
CLASS_STORE = 2
CLASS_BRANCH = 3
CLASS_JUMP = 4
CLASS_OTHER = 5
NUM_CLASSES = 6
CLASS_NAMES: Tuple[str, ...] = ("alu", "load", "store", "branch", "jump", "other")

_KIND_TO_CLASS = {
    Kind.ALU: CLASS_ALU,
    Kind.MULDIV: CLASS_ALU,
    Kind.MFHILO: CLASS_ALU,
    Kind.LOAD: CLASS_LOAD,
    Kind.STORE: CLASS_STORE,
    Kind.BRANCH: CLASS_BRANCH,
    Kind.JUMP: CLASS_JUMP,
    Kind.JUMP_REG: CLASS_JUMP,
}


def class_of(instr: Instruction) -> int:
    """Taxonomy slot for one instruction (``CLASS_*``)."""
    return _KIND_TO_CLASS.get(instr.op.kind, CLASS_OTHER)


class Trace:
    """One recorded trace: where it starts, how long it is, what it reads.

    ``reg_in`` holds ``(reg, value)`` pairs sorted by register; ``mem_in``
    holds ``(address, width, raw_value)`` with the *unextended* memory
    bytes (a signed byte load of 0xFF records 0xFF); ``hi_lo_in`` holds
    ``(from_hi, value)`` reads of hi/lo not produced in-trace, in program
    order.  ``class_counts`` is indexed by ``CLASS_*``.
    ``live_in_signature`` identifies the validation condition (the table
    replaces a resident entry with the same one); it is built once here.
    """

    __slots__ = (
        "start_pc",
        "length",
        "reg_in",
        "mem_in",
        "hi_lo_in",
        "class_counts",
        "live_in_signature",
    )

    def __init__(
        self,
        start_pc: int,
        length: int,
        reg_in: Tuple[Tuple[int, int], ...],
        mem_in: Tuple[Tuple[int, int, int], ...],
        hi_lo_in: Tuple[Tuple[bool, int], ...],
        class_counts: Tuple[int, ...],
    ) -> None:
        self.start_pc = start_pc
        self.length = length
        self.reg_in = reg_in
        self.mem_in = mem_in
        self.hi_lo_in = hi_lo_in
        self.class_counts = class_counts
        self.live_in_signature = (start_pc, reg_in, mem_in, hi_lo_in)

    def matches(self, regs, hi, lo) -> bool:
        """Do the register and hi/lo live-ins hold in ``regs``/``hi``/``lo``?

        These may be a shadow state holding ``None`` for unknown values:
        an unknown live-in conservatively fails.  Memory live-ins are not
        checked; the table's store invalidation keeps them fresh.
        """
        for reg, value in self.reg_in:
            if regs[reg] != value:
                return False
        for from_hi, value in self.hi_lo_in:
            if (hi if from_hi else lo) != value:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Trace(start={self.start_pc:#x}, len={self.length}, "
            f"reg_in={len(self.reg_in)}, mem_in={len(self.mem_in)})"
        )
