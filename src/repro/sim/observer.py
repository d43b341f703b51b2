"""Analyzer (observer) protocol.

Every analysis in :mod:`repro.core` subclasses :class:`Analyzer` and is
attached to a :class:`~repro.sim.simulator.Simulator` (or fed a synthetic
event stream directly in tests).  The simulator delivers:

* ``on_start(program)`` once before execution;
* ``on_call`` / ``on_return`` / ``on_syscall`` at function and syscall
  boundaries — *including* during any warm-up (skip) window, flagged via
  the event's ``warmup`` attribute, so analyzers can keep structural
  state (call stacks) consistent without counting warm-up activity;
* one step per retired instruction after the warm-up window;
* ``on_finish()`` once after execution.

Step work comes in two shapes.  An analyzer may override ``on_step`` and
be called with every :class:`~repro.sim.events.StepRecord`.  Or it may
override ``compile_step(pc, instr)``, which runs once per static
instruction and returns the closure that does that instruction's
per-step work (or ``None`` to skip the instruction entirely); every
static decision — opcode kind, register indices, reuse-buffer set,
trace boundary — is taken there, not per step.  A compiled step takes
only the step's dynamic values, positionally (:data:`StepFn`).

The predecoded engine calls compiled steps straight from the generated
per-instruction closures, building no record.  It builds records only
for analyzers that override ``on_step``, through a per-pc adapter
(:func:`record_step`).  Everything else that holds records (the
reference interpreter, trace replay, synthetic streams in tests, a
caller invoking ``on_step`` by hand) goes through the base-class
``on_step`` adapter, which unpacks the record into the same closure.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.asm.program import Program
from repro.isa.instructions import Instruction, Kind
from repro.isa.registers import V0
from repro.sim.events import CallEvent, ReturnEvent, StepRecord, SyscallEvent

#: A compiled per-instruction step, called for each dynamic instance of
#: its static instruction as ``step(n, inputs, outputs, value, address)``:
#: the step's index, its input and output values (as in
#: :class:`~repro.sim.events.StepRecord`), the value written to the
#: destination register (0 without one) and the memory address (``None``
#: unless a load or store).  The pc, the instruction, the destination
#: register and a store's value (``inputs[0]``) are static; a syscall
#: writes ``$v0`` exactly when ``outputs`` is non-empty.
StepFn = Callable[[int, Tuple[int, ...], Tuple[int, ...], int, Optional[int]], None]


class Analyzer:
    """Base class for execution-stream analyses.  All hooks are no-ops."""

    def on_start(self, program: Program) -> None:
        """Called once before the first instruction executes."""

    def compile_step(self, pc: int, instr: Instruction) -> Optional[StepFn]:
        """Bind the per-step work for the static instruction at ``pc``.

        Called once per static instruction, right after its first
        instance retires and before that step is delivered, so
        first-compilation order is first-execution order and an
        instruction that traps on first execution is never compiled.
        Returns ``None`` when the analyzer ignores ``instr``.  Only
        static facts may be decided here: anything that depends on
        run-time values stays inside the returned :data:`StepFn`.
        """
        return None

    def on_step(self, record: StepRecord) -> None:
        """Called for every retired instruction (after any skip window).

        This default is the adapter for compiled analyzers: it runs the
        closure :meth:`compile_step` built for ``record.instr``, compiling
        it on first sight of that instruction at that pc, with the
        record's values.
        """
        try:
            compiled = self._compiled_steps
        except AttributeError:
            compiled = self._compiled_steps = {}
        pc = record.pc
        instr = record.instr
        entry = compiled.get(pc)
        if entry is None or entry[0] is not instr:
            entry = compiled[pc] = (instr, self.compile_step(pc, instr))
        step = entry[1]
        if step is not None:
            step(
                record.index,
                record.inputs,
                record.outputs,
                record.dest_value,
                record.mem_addr,
            )

    def on_call(self, event: CallEvent) -> None:
        """Called at every function call boundary."""

    def on_return(self, event: ReturnEvent) -> None:
        """Called at every function return boundary."""

    def on_syscall(self, event: SyscallEvent) -> None:
        """Called after every syscall."""

    def on_finish(self) -> None:
        """Called once when execution stops."""


def release_compiled_steps(analyzer: Analyzer) -> None:
    """Drop the closures the ``on_step`` adapter cached on ``analyzer``.

    They refer back to the analyzer, so once its stream is over they
    only keep it alive until the next cycle collection.  The emptied
    cache stays, so a later ``on_step`` compiles afresh.
    """
    compiled = getattr(analyzer, "_compiled_steps", None)
    if compiled is not None:
        compiled.clear()


def overrides_on_step(cls: type) -> bool:
    """True iff ``cls`` replaces the base ``on_step`` adapter."""
    return cls.on_step is not Analyzer.on_step


def takes_steps(cls: type) -> bool:
    """True iff instances of ``cls`` do per-step work, in either shape."""
    return overrides_on_step(cls) or cls.compile_step is not Analyzer.compile_step


def record_step(on_step: Callable[[StepRecord], None], pc: int, instr: Instruction) -> StepFn:
    """A :data:`StepFn` for ``instr`` at ``pc`` that hands ``on_step`` a record.

    The record's static fields (pc, instruction, destination register,
    store value) are fixed here; the step supplies the rest.
    """
    kind = instr.op.kind
    if kind is Kind.SYSCALL:

        def step(n, inputs, outputs, value, address) -> None:
            dest = V0 if outputs else None
            on_step(StepRecord(n, pc, instr, inputs, outputs, dest, value, None, None))

    elif kind is Kind.STORE:

        def step(n, inputs, outputs, value, address) -> None:
            on_step(StepRecord(n, pc, instr, inputs, outputs, None, value, address, inputs[0]))

    else:
        dest = instr.dest_register()

        def step(n, inputs, outputs, value, address) -> None:
            on_step(StepRecord(n, pc, instr, inputs, outputs, dest, value, address, None))

    return step


def step_compiler(analyzer: Analyzer) -> Callable[[int, Instruction], Optional[StepFn]]:
    """``(pc, instr) -> step`` for one analyzer.

    Analyzers that override ``on_step`` get a per-pc :func:`record_step`
    adapter around their bound ``on_step`` for every instruction.
    """
    if overrides_on_step(type(analyzer)):
        on_step = analyzer.on_step
        return lambda pc, instr: record_step(on_step, pc, instr)
    return analyzer.compile_step
