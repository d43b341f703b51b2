"""Trace builder: fold a straight-line run of step records into a trace.

The builder is fed one executed instruction at a time (as the
:class:`~repro.sim.events.StepRecord`-shaped facts the engines already
produce) and maintains the dataflow summary a :class:`~repro.traces.trace
.Trace` needs:

* a register read whose value was not produced earlier in the trace is a
  register live-in; the last write to each register is its live-out;
* a load from bytes untouched by in-trace stores is a memory live-in
  (recorded raw, pre-extension); a load fully covered by in-trace stores
  is internal; a *partially* covered load poisons the candidate
  (``REASON_OVERLAP`` — the mixed value cannot be validated cheaply);
* stores are kept in order for replay, and a store outside the tracked
  data/heap/stack segments poisons the candidate (self-modifying-code
  adjacent, or a wild pointer — either way unsafe to memoize);
* hi/lo reads and writes are tracked like a two-register file.

Feeding an excluded instruction (syscall/call/return) does not execute
anything here — the builder is passive — but marks the candidate unsafe
so :func:`~repro.traces.safety.check_candidate` rejects it.  Normal
drivers finalize *before* excluded instructions; the marker exists so a
candidate assembled any other way still cannot slip through.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.isa.convention import segment_of
from repro.isa.instructions import Instruction, Kind
from repro.isa.registers import A0, V0
from repro.sim.events import StepRecord
from repro.traces.trace import NUM_CLASSES, Trace, class_of

#: Rejection reasons (shared with :mod:`repro.traces.safety`).
REASON_SYSCALL = "syscall"
REASON_CALL = "call"
REASON_RETURN = "return"
REASON_UNTRACKED_STORE = "untracked-store"
REASON_OVERLAP = "partial-overlap"
REASON_TOO_SHORT = "too-short"
REASON_TOO_LONG = "too-long"
REASON_IMPLICIT_INPUT = "implicit-input"

#: Segments a memoized store may legally target.
TRACKED_SEGMENTS = ("data", "heap", "stack")

_WIDTH_MASK = {1: 0xFF, 2: 0xFFFF, 4: 0xFFFFFFFF}


def compile_next_pc(pc: int, instr: Instruction) -> Callable[[StepRecord], int]:
    """The successor-pc rule of the static instruction at ``pc``."""
    kind = instr.op.kind
    if kind is Kind.BRANCH:
        target = instr.target
        fallthrough = pc + 4
        return lambda record: target if record.outputs[0] else fallthrough
    if kind is Kind.JUMP:
        target = instr.target
        return lambda record: target
    if kind is Kind.JUMP_REG:
        return lambda record: record.inputs[0]
    fallthrough = pc + 4
    return lambda record: fallthrough


def step_next_pc(record: StepRecord) -> int:
    """Reconstruct the successor pc of an observed step record."""
    return compile_next_pc(record.pc, record.instr)(record)


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


Feed = Callable[["TraceBuilder", StepRecord], None]


def compile_feed(instr: Instruction) -> Feed:
    """Bind :meth:`TraceBuilder.feed` for one static instruction.

    The boundary reason, register reads, memory width and class slot
    are fixed here; the returned ``feed(builder, record)`` folds one
    executed instance into ``builder``.
    """
    op = instr.op
    kind = op.kind
    reads = register_reads(instr)
    slot = class_of(instr)
    width = op.mem_width
    mask = _WIDTH_MASK.get(width, 0)

    if kind is Kind.SYSCALL:
        unsafe = REASON_SYSCALL
    elif kind is Kind.CALL:
        unsafe = REASON_CALL
    elif instr.is_return:
        unsafe = REASON_RETURN
    else:
        unsafe = None

    if kind is Kind.LOAD:

        def feed(builder: TraceBuilder, record: StepRecord) -> None:
            inputs = record.inputs
            reg_in = builder._reg_in
            reg_out = builder._reg_out
            for reg, position in reads:
                if reg not in reg_out and reg not in reg_in:
                    reg_in[reg] = inputs[position]
            address = record.mem_addr
            written = builder._written_bytes
            covered = (
                sum(1 for b in range(address, address + width) if b in written)
                if written
                else 0
            )
            if covered == 0:
                key = (address, width)
                if key not in builder._mem_in_seen:
                    builder._mem_in_seen.add(key)
                    builder._mem_in.append((address, width, record.outputs[0] & mask))
            elif covered != width and builder.unsafe is None:
                builder.unsafe = REASON_OVERLAP
            dest = record.dest_reg
            if dest:
                reg_out[dest] = record.dest_value
            builder._class_counts[slot] += 1
            builder.length += 1

    elif kind is Kind.STORE:

        def feed(builder: TraceBuilder, record: StepRecord) -> None:
            inputs = record.inputs
            reg_in = builder._reg_in
            reg_out = builder._reg_out
            for reg, position in reads:
                if reg not in reg_out and reg not in reg_in:
                    reg_in[reg] = inputs[position]
            address = record.mem_addr
            if builder.unsafe is None and segment_of(address) not in TRACKED_SEGMENTS:
                builder.unsafe = REASON_UNTRACKED_STORE
            builder._stores.append((address, width, record.store_value & mask))
            builder._written_bytes.update(range(address, address + width))
            dest = record.dest_reg
            if dest:
                reg_out[dest] = record.dest_value
            builder._class_counts[slot] += 1
            builder.length += 1

    elif kind is Kind.MFHILO:
        from_hi = op.name == "mfhi"

        def feed(builder: TraceBuilder, record: StepRecord) -> None:
            if not builder._hilo_written:
                if from_hi and not builder._hi_in_seen:
                    builder._hi_in_seen = True
                    builder._hi_lo_in.append((True, record.inputs[0]))
                elif not from_hi and not builder._lo_in_seen:
                    builder._lo_in_seen = True
                    builder._hi_lo_in.append((False, record.inputs[0]))
            dest = record.dest_reg
            if dest:
                builder._reg_out[dest] = record.dest_value
            builder._class_counts[slot] += 1
            builder.length += 1

    else:
        is_muldiv = kind is Kind.MULDIV
        is_syscall = kind is Kind.SYSCALL

        def feed(builder: TraceBuilder, record: StepRecord) -> None:
            if unsafe is not None and builder.unsafe is None:
                builder.unsafe = unsafe
            inputs = record.inputs
            reg_in = builder._reg_in
            reg_out = builder._reg_out
            if not is_syscall or len(inputs) >= 2:
                for reg, position in reads:
                    if reg not in reg_out and reg not in reg_in:
                        reg_in[reg] = inputs[position]
            if is_muldiv:
                builder._hilo_written = True
                builder._hi_out, builder._lo_out = record.outputs
            dest = record.dest_reg
            if dest:
                reg_out[dest] = record.dest_value
            builder._class_counts[slot] += 1
            builder.length += 1

    return feed


class TraceBuilder:
    """Accumulates one trace candidate from consecutive step records."""

    def __init__(self, start_pc: int, max_len: int) -> None:
        self.start_pc = start_pc
        self.max_len = max_len
        self.length = 0
        #: First structural-safety violation seen, or ``None``.
        self.unsafe: Optional[str] = None
        self._reg_in: Dict[int, int] = {}
        #: Last write per register; its keys are the registers written.
        self._reg_out: Dict[int, int] = {}
        self._mem_in: List[Tuple[int, int, int]] = []
        self._mem_in_seen: Set[Tuple[int, int]] = set()
        self._written_bytes: Set[int] = set()
        self._stores: List[Tuple[int, int, int]] = []
        self._hi_lo_in: List[Tuple[bool, int]] = []
        self._hi_in_seen = False
        self._lo_in_seen = False
        self._hilo_written = False
        self._hi_out = 0
        self._lo_out = 0
        self._class_counts = [0] * NUM_CLASSES

    @property
    def mem_live_ins(self) -> Tuple[Tuple[int, int, int], ...]:
        return tuple(self._mem_in)

    def feed(self, record: StepRecord) -> None:
        """Fold one executed step into the candidate."""
        compile_feed(record.instr)(self, record)

    def build(self, end_pc: int) -> Trace:
        """Materialize the finished candidate as an immutable trace."""
        return Trace(
            start_pc=self.start_pc,
            end_pc=end_pc,
            length=self.length,
            reg_in=tuple(sorted(self._reg_in.items())),
            mem_in=tuple(self._mem_in),
            hi_lo_in=tuple(self._hi_lo_in),
            reg_out=tuple(sorted(self._reg_out.items())),
            hi_lo_out=(self._hi_out, self._lo_out) if self._hilo_written else None,
            stores=tuple(self._stores),
            class_counts=tuple(self._class_counts),
        )
