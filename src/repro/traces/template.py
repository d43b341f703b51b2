"""Region templates: the static dataflow of a straight-line region.

A region starts at a probe miss at pc ``P``; every instruction in it but
the last falls through, so its instructions are fixed by ``(P, length)``.
Which step reads each live-in register first, which steps read hi/lo
before any in-trace ``mult``/``div``, the class counts and the positions
and widths of the loads and stores are therefore fixed as well.
:class:`RegionTemplate` works them out once from one region's
instructions; recording an instance of the region then only reads
values at those slots.

An instance is a sequence of per-step tuples ``(instr, inputs, outputs,
value, address)``: the static instruction, then the step's values as a
compiled analyzer step receives them (:data:`repro.sim.observer.StepFn`).
The live-in rules:

* a register read whose value was not produced earlier in the region is
  a register live-in, recorded at its first read;
* a load from bytes untouched by in-region stores is a memory live-in
  (recorded raw, pre-extension, once per ``(address, width)``); a load
  fully covered by in-region stores is internal; a *partially* covered
  load rejects the candidate (``partial-overlap`` — the mixed value
  cannot be expressed as one pre-trace live-in);
* a store outside the tracked data/heap/stack segments rejects the
  candidate (``untracked-store`` — self-modifying-code adjacent, or a
  wild pointer);
* hi/lo reads before any in-region ``mult``/``div`` are hi/lo live-ins.

A region shorter than :data:`MIN_TRACE_LEN` is rejected too
(``too-short``): the instruction-level reuse buffer already covers
single instructions.  Regions never run past the table's
``max_trace_len``; the analyzer splits them there.

The memory checks depend on addresses, so recording walks the loads and
stores of every instance; everything else is gathered at fixed slots.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.isa.convention import DATA_BASE, STACK_TOP
from repro.isa.instructions import BOUNDARY_EXCLUDE, Instruction, Kind, boundary_kind
from repro.isa.registers import A0, V0
from repro.traces.trace import NUM_CLASSES, Trace, class_of

#: Rejection reasons, as counted in ``TraceReuseReport.rejections``.
REASON_UNTRACKED_STORE = "untracked-store"
REASON_OVERLAP = "partial-overlap"
REASON_TOO_SHORT = "too-short"

#: Regions shorter than this are not recorded.
MIN_TRACE_LEN = 2

_WIDTH_MASK = {1: 0xFF, 2: 0xFFFF, 4: 0xFFFFFFFF}

MemoryLiveIns = Tuple[Tuple[int, int, int], ...]

#: One recorded step: ``(instr, inputs, outputs, value, address)``.
Step = Tuple[Instruction, Tuple[int, ...], Tuple[int, ...], int, Optional[int]]

#: Positions in a :data:`Step`.
_INPUTS, _OUTPUTS, _VALUE, _ADDRESS = 1, 2, 3, 4


def register_reads(instr: Instruction) -> Tuple[Tuple[int, int], ...]:
    """``(register, position in the step's inputs)`` per non-``$zero`` read.

    A syscall reads its service number and argument from ``$v0``/``$a0``.
    """
    if instr.op.kind is Kind.SYSCALL:
        return ((V0, 0), (A0, 1))
    return tuple(
        (reg, position)
        for position, reg in enumerate(instr.source_registers())
        if reg
    )


class RegionTemplate:
    """Where the live-ins of a region starting at ``start_pc`` sit.

    Built once from the region's instructions, gathered per instance.

    ``reg_slots`` holds ``(register, step, input position)`` sorted by
    register; ``hi_lo_slots`` holds ``(from_hi, step)`` in program order;
    ``mem_ops`` holds ``(step, width, is_store)`` in program order.

    The ``last_*`` slots say where each register (and hi, lo) was last
    read or written: what a shadow register file that is updated step
    by step holds after the region.
    """

    __slots__ = (
        "start_pc",
        "length",
        "reg_slots",
        "hi_lo_slots",
        "mem_ops",
        "class_counts",
        "last_reads",
        "last_writes",
        "last_hi_lo",
    )

    def __init__(self, start_pc: int, steps: Sequence[Step]) -> None:
        first_read: Dict[int, Tuple[int, int]] = {}
        written: Set[int] = set()
        hi_lo_slots: List[Tuple[bool, int]] = []
        hi_lo_read: Set[bool] = set()
        hilo_written = False
        mem_ops: List[Tuple[int, int, bool]] = []
        class_counts = [0] * NUM_CLASSES
        #: register -> (step, input position), or (step, None) for a write.
        last: Dict[int, Tuple[int, Optional[int]]] = {}
        #: [hi, lo] -> (step, read from outputs, index) of the last update.
        last_hi_lo: List[Optional[Tuple[int, bool, int]]] = [None, None]
        for step, values in enumerate(steps):
            instr = values[0]
            if boundary_kind(instr) == BOUNDARY_EXCLUDE:
                raise ValueError(
                    f"{instr.op.name} at {instr.addr:#x} cannot be part of a region"
                )
            kind = instr.op.kind
            for reg, position in register_reads(instr):
                if reg not in written and reg not in first_read:
                    first_read[reg] = (step, position)
                last[reg] = (step, position)
            if kind is Kind.MFHILO:
                from_hi = instr.op.name == "mfhi"
                if not hilo_written and from_hi not in hi_lo_read:
                    hi_lo_read.add(from_hi)
                    hi_lo_slots.append((from_hi, step))
                last_hi_lo[0 if from_hi else 1] = (step, False, 0)
            elif kind is Kind.MULDIV:
                hilo_written = True
                last_hi_lo = [(step, True, 0), (step, True, 1)]
            elif kind is Kind.LOAD or kind is Kind.STORE:
                mem_ops.append((step, instr.op.mem_width, kind is Kind.STORE))
            dest = instr.dest_register()
            if dest:
                written.add(dest)
                last[dest] = (step, None)
            class_counts[class_of(instr)] += 1
        self.start_pc = start_pc
        self.length = len(steps)
        self.reg_slots = tuple(
            (reg, step, position)
            for reg, (step, position) in sorted(first_read.items())
        )
        self.hi_lo_slots = tuple(hi_lo_slots)
        self.mem_ops = tuple(mem_ops)
        self.class_counts = tuple(class_counts)
        self.last_reads = tuple(
            (reg, step, position)
            for reg, (step, position) in last.items()
            if position is not None
        )
        self.last_writes = tuple(
            (reg, step) for reg, (step, position) in last.items() if position is None
        )
        self.last_hi_lo = tuple(
            (cell, *slot) for cell, slot in enumerate(last_hi_lo) if slot is not None
        )

    def update_shadow(self, steps: Sequence[Step], regs, hi_lo) -> None:
        """Leave ``regs`` and ``hi_lo`` as a step-by-step update would."""
        for reg, step, position in self.last_reads:
            regs[reg] = steps[step][_INPUTS][position]
        for reg, step in self.last_writes:
            regs[reg] = steps[step][_VALUE]
        for cell, step, from_outputs, index in self.last_hi_lo:
            hi_lo[cell] = steps[step][_OUTPUTS if from_outputs else _INPUTS][index]

    def memory(self, steps: Sequence[Step]) -> Tuple[Optional[str], MemoryLiveIns]:
        """``(unsafe reason or None, memory live-ins)`` of one instance.

        The first violation in program order wins; its live-ins are
        then irrelevant and returned empty.
        """
        mem_in: List[Tuple[int, int, int]] = []
        seen: Set[Tuple[int, int]] = set()
        written: Set[int] = set()
        for step, width, is_store in self.mem_ops:
            values = steps[step]
            address = values[_ADDRESS]
            if is_store:
                # data, heap and stack are one contiguous address range.
                if not DATA_BASE <= address <= STACK_TOP:
                    return REASON_UNTRACKED_STORE, ()
                written.update(range(address, address + width))
                continue
            covered = (
                sum(1 for byte in range(address, address + width) if byte in written)
                if written
                else 0
            )
            if covered == 0:
                key = (address, width)
                if key not in seen:
                    seen.add(key)
                    mem_in.append((address, width, values[_OUTPUTS][0] & _WIDTH_MASK[width]))
            elif covered != width:
                return REASON_OVERLAP, ()
        return None, tuple(mem_in)

    def record(self, steps: Sequence[Step]) -> Tuple[Optional[Trace], Optional[str]]:
        """``(trace, None)`` for an admitted instance, else ``(None, reason)``.

        A memory violation outranks ``too-short``.
        """
        unsafe, mem_in = self.memory(steps) if self.mem_ops else (None, ())
        if unsafe is not None:
            return None, unsafe
        if self.length < MIN_TRACE_LEN:
            return None, REASON_TOO_SHORT
        reg_in = tuple(
            [(reg, steps[step][_INPUTS][position]) for reg, step, position in self.reg_slots]
        )
        hi_lo_in = tuple(
            [(from_hi, steps[step][_INPUTS][0]) for from_hi, step in self.hi_lo_slots]
        )
        trace = Trace(
            self.start_pc, self.length, reg_in, mem_in, hi_lo_in, self.class_counts
        )
        return trace, None
