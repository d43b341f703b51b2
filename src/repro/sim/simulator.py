"""Functional simulator for the MIPS-I-like ISA.

The simulator retires one instruction at a time, maintaining architectural
state (registers, hi/lo, memory) and a call stack, and streams every
retired step plus call / return / syscall events to attached
:class:`~repro.sim.observer.Analyzer` objects.  It plays the role
SimpleScalar's functional simulator played in the paper.

Execution windows mirror the paper's methodology: ``run(skip=..., limit=
...)`` executes ``skip`` instructions delivering only structural events
(flagged ``warmup=True``), then delivers every step for up to ``limit``
instructions.

Two execution engines share this interface (``engine=`` knob):

* ``"predecoded"`` (default) — each static instruction is compiled once
  into a specialized step closure (:mod:`repro.sim.predecode`).  In
  analysis mode the closure hands each step's values positionally to
  the analyzers' compiled steps; a
  :class:`~repro.sim.events.StepRecord` is built only for an analyzer
  that overrides ``on_step``.  The warm-up window and runs without step
  analyzers use the fast closures, which do no analysis work, one
  straight-line run per dispatch (:func:`repro.sim.predecode.chain`).
* ``"interpreter"`` — the original decode-per-step reference backend,
  kept verbatim so differential tests can lock the engines together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.asm.program import FunctionInfo, Program
from repro.isa import bits
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.isa.convention import GP_VALUE, STACK_TOP
from repro.isa.instructions import Format, Kind
from repro.isa.registers import A0, GP, NUM_REGISTERS, RA, SP, V0
from repro.sim import predecode
from repro.sim.errors import SimError
from repro.sim.events import CallEvent, ReturnEvent, StepRecord, SyscallEvent
from repro.sim.memory import Memory
from repro.sim.observer import (
    Analyzer,
    release_compiled_steps,
    step_compiler,
    takes_steps,
)
from repro.sim.syscalls import InputStream, SyscallHandler

#: ``jr $ra`` to this address halts the machine (initial $ra value).
HALT_ADDRESS = 0

#: Supported execution engines.
ENGINES = ("predecoded", "interpreter")

#: Engine used when none is requested.
DEFAULT_ENGINE = "predecoded"

_EMPTY: Tuple[int, ...] = ()

#: Stand-in bound for ``limit=None`` (avoids an is-None test per step).
_NO_LIMIT = 1 << 62


@dataclass
class RunResult:
    """Summary of one simulation run."""

    #: Instructions retired inside the analysis window (post-skip).
    analyzed_instructions: int
    #: All instructions retired, including the warm-up window.
    total_instructions: int
    #: Why execution stopped: ``exit`` / ``halt`` / ``limit``.
    stop_reason: str
    exit_code: int
    output: str


@dataclass
class _Frame:
    function: Optional[FunctionInfo]
    return_addr: int


def _hooks_for(analyzers: Sequence[Analyzer], name: str) -> tuple:
    """Bound methods of analyzers that actually override ``name``.

    Analyzers that inherit the base-class no-op are skipped entirely, so
    the per-event fan-out only touches observers that do work.  For
    ``on_step``, overriding ``compile_step`` counts as participation too
    (the bound ``on_step`` is then the base-class adapter).
    """
    if name == "on_step":
        return tuple(a.on_step for a in analyzers if takes_steps(type(a)))
    base = getattr(Analyzer, name)
    return tuple(
        getattr(analyzer, name)
        for analyzer in analyzers
        if getattr(type(analyzer), name) is not base
    )


class Simulator:
    """Executes a :class:`Program`, streaming events to analyzers."""

    def __init__(
        self,
        program: Program,
        input_data: bytes = b"",
        analyzers: Sequence[Analyzer] = (),
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        if engine not in ENGINES:
            raise SimError(f"unknown engine {engine!r} (choose from {ENGINES})")
        self.program = program
        self.memory = Memory()
        self.memory.load_bytes(program.data_base, bytes(program.data))
        self.regs: List[int] = [0] * NUM_REGISTERS
        self.regs[GP] = GP_VALUE
        self.regs[SP] = STACK_TOP
        self.regs[RA] = HALT_ADDRESS
        self.hi = 0
        self.lo = 0
        self.pc = program.entry
        self.syscalls = SyscallHandler(InputStream(input_data))
        self.call_stack: List[_Frame] = []
        self._analyzers: List[Analyzer] = list(analyzers)
        self._engine = engine
        self._started = False
        self._paused = False
        self._pause_requested = False
        self._pause_watched = False
        self._total = 0
        self._analyzed = 0
        self._limit: Optional[int] = None
        self._skip = 0
        # Telemetry: call/return edges are rare enough to count always;
        # branch/memop counts live in a cell list only when the metrics
        # registry is enabled at run() time (see _run_fast/_run_full).
        self.call_count = 0
        self.return_count = 0
        self._kind_counts: Optional[List[int]] = None
        self._published: Optional[List[int]] = None
        # Predecoded engine state, bound lazily on first use.  The observed
        # closures are bound per text index on first execution.
        self._fast_code: Optional[list] = None
        self._chains: Optional[dict] = None
        self._full_code: Optional[list] = None
        self._step_hooks: tuple = ()
        self._step_compilers: tuple = ()
        self._call_hooks: tuple = ()
        self._return_hooks: tuple = ()
        self._syscall_hooks: tuple = ()

    def attach(self, analyzer: Analyzer) -> None:
        """Attach an analyzer before running."""
        if self._started:
            raise SimError("cannot attach analyzers after run() started")
        self._analyzers.append(analyzer)

    @property
    def engine(self) -> str:
        return self._engine

    @property
    def output(self) -> str:
        return self.syscalls.output_text()

    @property
    def paused(self) -> bool:
        return self._paused

    def request_pause(self) -> None:
        """Ask the simulator to stop at the next dispatch boundary.

        Callable from analyzer hooks (the basis for breakpoints and
        watchpoints) and, once :meth:`watch_pauses` is armed, from
        another thread (the harness watchdog's timer); resume with
        :meth:`resume`.  Every loop checks the flag once per dispatch.
        The observed loop and the interpreter dispatch every
        instruction, so a request stops at the next one.  The predecoded
        engine's record-free loop (the warm-up window, and runs without
        step analyzers) dispatches a straight-line run of up to
        :data:`~repro.sim.predecode.CHAIN_CAP` instructions at a time.
        A call, return or syscall is always dispatched alone, so a
        request from one of their hooks still stops at the next
        instruction; a request from another thread stops at the end of
        the current run.  That loop checks the flag only when an
        analyzer has call, return or syscall hooks or the run is
        watched; an unwatched request from another thread may go unseen
        until the analysis window starts or the run ends.
        """
        self._pause_requested = True

    def watch_pauses(self, armed: bool = True) -> None:
        """Declare that another thread may call :meth:`request_pause`.

        While armed, every run loop checks the pause flag once per
        dispatch (see :meth:`request_pause`).  Unwatched runs without
        hooks that could pause skip that check.
        """
        self._pause_watched = armed

    # ------------------------------------------------------------------

    def _emit_call(
        self, pc: int, target: int, return_addr: int, warmup: bool
    ) -> None:
        self.call_count += 1
        function = self.program.function_by_entry(target)
        self.call_stack.append(_Frame(function, return_addr))
        hooks = self._call_hooks
        if not hooks:
            return
        argc = function.num_args if function is not None else 0
        args = tuple(self.regs[A0 : A0 + argc])
        event = CallEvent(
            pc, target, return_addr, function, args, len(self.call_stack), self.regs[SP], warmup
        )
        for hook in hooks:
            hook(event)

    def _emit_return(self, pc: int, target: int, warmup: bool) -> None:
        self.return_count += 1
        function = None
        # Pop frames down to (and including) the one matching this return
        # target; tolerates non-matching frames from tail-call-like code.
        while self.call_stack:
            frame = self.call_stack.pop()
            if frame.return_addr == target or not self.call_stack:
                function = frame.function
                break
        hooks = self._return_hooks
        if not hooks:
            return
        event = ReturnEvent(
            pc, target, function, self.regs[V0], len(self.call_stack) + 1, warmup
        )
        for hook in hooks:
            hook(event)

    def _emit_syscall(
        self, pc: int, service: int, arg: int, result: Optional[int], warmup: bool
    ) -> None:
        hooks = self._syscall_hooks
        if not hooks:
            return
        event = SyscallEvent(
            pc,
            service,
            arg,
            result,
            service in SyscallHandler.INPUT_SERVICES,
            service in SyscallHandler.OUTPUT_SERVICES,
            warmup,
        )
        for hook in hooks:
            hook(event)

    # ------------------------------------------------------------------

    def run(self, limit: Optional[int] = None, skip: int = 0) -> RunResult:
        """Execute the program.

        ``skip`` instructions run first in warm-up mode (structural events
        only); then up to ``limit`` instructions are executed with full
        step records (``limit=None`` runs to completion).

        If an analyzer calls :meth:`request_pause`, execution stops at the
        next instruction boundary with ``stop_reason == "paused"`` and can
        be continued with :meth:`resume`.
        """
        if self._started:
            raise SimError("Simulator.run() may only be called once; use resume()")
        self._started = True
        self._limit = limit
        self._skip = skip

        program = self.program
        self._step_hooks = _hooks_for(self._analyzers, "on_step")
        self._step_compilers = tuple(
            step_compiler(a) for a in self._analyzers if takes_steps(type(a))
        )
        self._call_hooks = _hooks_for(self._analyzers, "on_call")
        self._return_hooks = _hooks_for(self._analyzers, "on_return")
        self._syscall_hooks = _hooks_for(self._analyzers, "on_syscall")
        if obs_metrics.REGISTRY.enabled:
            self._kind_counts = [0, 0]
        for analyzer in self._analyzers:
            analyzer.on_start(program)
        # Program entry is modelled as a call so the call stack is rooted.
        self._emit_call(self.pc, self.pc, HALT_ADDRESS, warmup=skip > 0)
        return self._execute()

    def resume(self, additional_limit: Optional[int] = None) -> RunResult:
        """Continue a paused simulation (optionally extending the limit).

        ``additional_limit`` extends the analysis window by that many
        instructions.  If the original run had an explicit ``limit``, the
        new limit is ``limit + additional_limit``; if it was unlimited
        (``limit=None``), the extension anchors at the number of
        instructions analyzed so far, i.e. the resumed run executes at
        most ``additional_limit`` further analyzed instructions and the
        simulation is no longer unlimited.  Without ``additional_limit``
        the original window (limited or not) simply continues.
        """
        if not self._paused:
            raise SimError("resume() requires a paused simulation")
        self._paused = False
        if additional_limit is not None:
            anchor = self._analyzed if self._limit is None else self._limit
            self._limit = anchor + additional_limit
        return self._execute()

    def _execute(self) -> RunResult:
        try:
            if self._engine == "interpreter":
                return self._execute_interpreter()
            return self._execute_predecoded()
        except SimError as exc:
            # Annotate escaping traps so failure records can say which
            # engine died and how far it got.
            exc.engine = self._engine
            exc.retired_total = self._total
            exc.retired_analyzed = self._analyzed
            raise

    # ------------------------------------------------------------------
    # Predecoded engine
    # ------------------------------------------------------------------

    def _execute_predecoded(self) -> RunResult:
        tracer = obs_tracing.current_tracer()
        stop = None
        # A window with no room (``limit=0``) retires nothing, warm-up
        # included: the analysis loop stops it before the first fetch.
        if self._total < self._skip and (self._limit is None or self._analyzed < self._limit):
            if tracer is None:
                stop = self._run_fast(warmup=True)
            else:
                with tracer.span("warmup", engine=self._engine):
                    stop = self._run_fast(warmup=True)
        if stop is None:
            if tracer is None:
                stop = self._run_full() if self._step_hooks else self._run_fast(warmup=False)
            else:
                with tracer.span("simulate", engine=self._engine):
                    stop = (
                        self._run_full()
                        if self._step_hooks
                        else self._run_fast(warmup=False)
                    )
        return self._finish_run(stop)

    def _finish_run(self, stop_reason: str) -> RunResult:
        if stop_reason == "paused":
            self._paused = True
        else:
            for analyzer in self._analyzers:
                analyzer.on_finish()
                release_compiled_steps(analyzer)
            # A finished run cannot resume. Drop the code and hook tables:
            # their closures refer back to this simulator, and without the
            # cycle the run's state (analyzers included) is freed as soon
            # as the caller lets go, not at the next full collection.
            self._fast_code = self._full_code = self._chains = None
        registry = obs_metrics.REGISTRY
        if registry.enabled:
            self._publish_metrics(registry)
        syscalls = self.syscalls
        return RunResult(
            analyzed_instructions=self._analyzed,
            total_instructions=self._total,
            stop_reason=stop_reason,
            exit_code=syscalls.exit_code,
            output=syscalls.output_text(),
        )

    #: Registry counter names, index-matched with _publish_metrics values.
    _METRIC_NAMES = (
        "sim.instructions.total",
        "sim.instructions.analyzed",
        "sim.branches",
        "sim.memory_ops",
        "sim.calls",
        "sim.returns",
        "sim.syscalls",
    )

    def _publish_metrics(self, registry) -> None:
        """End-of-run snapshot into the registry (resume-safe deltas)."""
        published = self._published
        if published is None:
            published = self._published = [0] * len(self._METRIC_NAMES)
            registry.counter("sim.runs").inc()
        counts = self._kind_counts
        values = (
            self._total,
            self._analyzed,
            counts[0] if counts is not None else 0,
            counts[1] if counts is not None else 0,
            self.call_count,
            self.return_count,
            self.syscalls.invocations,
        )
        for index, name in enumerate(self._METRIC_NAMES):
            delta = values[index] - published[index]
            if delta:
                registry.counter(name).inc(delta)
                published[index] = values[index]

    def _run_fast(self, warmup: bool) -> Optional[str]:
        """Record-free execution (warm-up, or no step observers).

        Dispatches once per straight-line run: ``self._chains`` maps a pc
        to ``(chain, length)`` (:func:`repro.sim.predecode.chain`), built
        on the first dispatch to that pc.  A chain runs whole only while
        it fits before the window's bound; otherwise single closures
        step up to it, so the limit and the end of warm-up fall on the
        same instruction as stepping every instruction would.  One
        counter serves both modes: ``done`` counts toward ``skip`` in
        warm-up and toward ``limit`` in analysis.

        Returns the stop reason, or ``None`` when the warm-up window
        completed and execution should continue in analysis mode.
        """
        code = self._fast_code
        if code is None:
            code = self._fast_code = predecode.bind_fast(self, self._kind_counts)
            self._chains = {}
        chains = self._chains
        program = self.program
        text = program.text
        text_base = program.text_base
        text_len = len(text)
        # On this path the pause flag can only change inside call/return/
        # syscall hooks, from a watching thread, or before run(); skip the
        # check when none applies.
        check_pause = (
            bool(self._call_hooks or self._return_hooks or self._syscall_hooks)
            or self._pause_watched
            or self._pause_requested
        )
        ctrl_call = predecode.CTRL_CALL
        ctrl_return = predecode.CTRL_RETURN

        if warmup:
            done = self._total
            bound = self._skip
        else:
            done = self._analyzed
            bound = self._limit if self._limit is not None else _NO_LIMIT
        start = done
        pc = self.pc
        chain = None
        end = done
        stop: Optional[str] = None

        try:
            while True:
                try:
                    chain, length = chains[pc]
                except KeyError:
                    if pc == HALT_ADDRESS:
                        stop = "halt"
                        break
                    index = (pc - text_base) >> 2
                    if index < 0 or index >= text_len or pc & 3:
                        raise SimError("pc outside text segment", pc) from None
                    chain, length = chains[pc] = predecode.chain(code, text, index)
                end = done + length
                if end > bound:
                    if done >= bound:
                        if not warmup:
                            stop = "limit"
                        break  # in warm-up: the caller continues in analysis mode
                    chain = code[(pc - text_base) >> 2]
                    end = done + 1
                if check_pause and self._pause_requested:
                    self._pause_requested = False
                    stop = "paused"
                    break

                r = chain()
                done = end
                if r.__class__ is int:
                    pc = r
                    continue

                tag = r[1]
                if tag is ctrl_call:
                    self._emit_call(pc, r[2], r[3], warmup)
                elif tag is ctrl_return:
                    self._emit_return(pc, r[2], warmup)
                else:  # syscall
                    self._emit_syscall(pc, r[2], r[3], r[4], warmup)
                    if r[5]:
                        stop = "exit"
                        break
                pc = r[0]
        except BaseException as exc:
            # A trap inside a chain: the closures before the trapping one
            # retired, and the trapping instruction's pc is the stop pc.
            if end - done > 1:
                retired = predecode.chain_retired(exc.__traceback__, chain)
                done += retired
                pc += 4 * retired
            raise
        finally:
            # Also on a trap, so SimError carries the retired counts.
            self.pc = pc
            if warmup:
                self._total = done
            else:
                self._analyzed = done
                self._total += done - start
        return stop

    def _run_full(self) -> str:
        """Analysis-mode execution: each retired step reaches the analyzers.

        Each text index gets an observed closure that calls the
        analyzers' compiled steps for that instruction with its values
        (:mod:`repro.sim.observer`).  It is bound when the instruction
        first retires: that first instance runs a closure whose only
        hook compiles the steps, binds the index's closure and then
        delivers the step, so an instruction that traps leaves no
        analyzer state behind.  Closures return what fast ones do.
        """
        code = self._full_code
        if code is None:
            code = self._full_code = [None] * len(self.program.text)
        program = self.program
        text = program.text
        text_base = program.text_base
        text_len = len(text)
        compilers = self._step_compilers
        counts = self._kind_counts
        bind_observed = predecode.bind_observed
        bound = self._limit if self._limit is not None else _NO_LIMIT
        ctrl_call = predecode.CTRL_CALL
        ctrl_return = predecode.CTRL_RETURN

        def first_step(index: int, pc: int):
            instr = text[index]

            def compile_and_deliver(n, inputs, outputs, value, address) -> None:
                steps = [
                    step
                    for step in (make(pc, instr) for make in compilers)
                    if step is not None
                ]
                code[index] = bind_observed(self, instr, steps, counts)
                for step in steps:
                    step(n, inputs, outputs, value, address)

            return bind_observed(self, instr, (compile_and_deliver,), counts)

        pc = self.pc
        analyzed = self._analyzed
        analyzed_start = analyzed
        stop = "halt"

        try:
            while True:
                if pc == HALT_ADDRESS:
                    stop = "halt"
                    break
                index = (pc - text_base) >> 2
                if index < 0 or index >= text_len or pc & 3:
                    raise SimError("pc outside text segment", pc)
                if analyzed >= bound:
                    stop = "limit"
                    break
                if self._pause_requested:
                    self._pause_requested = False
                    stop = "paused"
                    break

                step = code[index]
                if step is None:
                    step = first_step(index, pc)
                r = step(analyzed + 1)
                analyzed += 1
                if r.__class__ is int:
                    pc = r
                    continue

                tag = r[1]
                if tag is ctrl_call:
                    self._emit_call(pc, r[2], r[3], False)
                elif tag is ctrl_return:
                    self._emit_return(pc, r[2], False)
                else:  # syscall
                    self._emit_syscall(pc, r[2], r[3], r[4], False)
                    if r[5]:
                        stop = "exit"
                        break
                pc = r[0]
        finally:
            self.pc = pc
            self._analyzed = analyzed
            self._total += analyzed - analyzed_start
        return stop

    # ------------------------------------------------------------------
    # Reference interpreter (original decode-per-step backend)
    # ------------------------------------------------------------------

    def _execute_interpreter(self) -> RunResult:
        tracer = obs_tracing.current_tracer()
        if tracer is None:
            return self._finish_run(self._interpret_loop())
        with tracer.span("simulate", engine="interpreter"):
            stop_reason = self._interpret_loop()
        return self._finish_run(stop_reason)

    def _interpret_loop(self) -> str:
        program = self.program
        limit = self._limit
        skip = self._skip
        kind_counts = self._kind_counts
        regs = self.regs
        memory = self.memory
        text = program.text
        text_base = program.text_base
        text_len = len(text)
        analyzers = self._analyzers
        step_hooks = self._step_hooks
        syscalls = self.syscalls

        pc = self.pc
        total = self._total
        analyzed = self._analyzed
        stop_reason = "halt"

        try:
            while True:
                if pc == HALT_ADDRESS:
                    stop_reason = "halt"
                    break
                index = (pc - text_base) >> 2
                if index < 0 or index >= text_len or pc & 3:
                    raise SimError("pc outside text segment", pc)
                if limit is not None and analyzed >= limit:
                    stop_reason = "limit"
                    break
                if self._pause_requested:
                    self._pause_requested = False
                    stop_reason = "paused"
                    break

                instr = text[index]
                op = instr.op
                name = op.name
                kind = op.kind
                next_pc = pc + 4
                warmup = total < skip

                inputs: Tuple[int, ...] = _EMPTY
                outputs: Tuple[int, ...] = _EMPTY
                dest_reg: Optional[int] = None
                dest_value = 0
                mem_addr: Optional[int] = None
                store_value: Optional[int] = None
                call_edge: Optional[Tuple[int, int]] = None  # (target, return_addr)
                return_edge: Optional[int] = None
                syscall_event: Optional[SyscallEvent] = None
                halt_after = False

                fmt = op.fmt
                if fmt == Format.I2:
                    a = regs[instr.rs]
                    imm = instr.imm
                    inputs = (a,)
                    if name == "addiu" or name == "addi":
                        result = (a + imm) & 0xFFFFFFFF
                    elif name == "andi":
                        result = a & imm
                    elif name == "ori":
                        result = a | imm
                    elif name == "xori":
                        result = a ^ imm
                    elif name == "slti":
                        result = 1 if bits.to_s32(a) < imm else 0
                    else:  # sltiu
                        result = 1 if a < bits.to_u32(imm) else 0
                    outputs = (result,)
                    dest_reg, dest_value = instr.rt, result
                    if dest_reg:
                        regs[dest_reg] = result
                elif kind == Kind.LOAD:
                    if kind_counts is not None:
                        kind_counts[1] += 1
                    base = regs[instr.rs]
                    address = (base + instr.imm) & 0xFFFFFFFF
                    inputs = (base,)
                    mem_addr = address
                    width = op.mem_width
                    if width == 4:
                        value = memory.read_word(address)
                    elif width == 2:
                        value = memory.read_half(address)
                        if op.signed_load:
                            value = bits.to_u32(bits.to_s16(value))
                    else:
                        value = memory.read_byte(address)
                        if op.signed_load:
                            value = bits.to_u32(bits.to_s8(value))
                    outputs = (value,)
                    dest_reg, dest_value = instr.rt, value
                    if dest_reg:
                        regs[dest_reg] = value
                elif kind == Kind.STORE:
                    if kind_counts is not None:
                        kind_counts[1] += 1
                    data = regs[instr.rt]
                    base = regs[instr.rs]
                    address = (base + instr.imm) & 0xFFFFFFFF
                    inputs = (data, base)
                    mem_addr = address
                    store_value = data
                    width = op.mem_width
                    if width == 4:
                        memory.write_word(address, data)
                    elif width == 2:
                        memory.write_half(address, data)
                    else:
                        memory.write_byte(address, data)
                elif fmt == Format.R3:
                    a = regs[instr.rs]
                    b = regs[instr.rt]
                    inputs = (a, b)
                    if name == "addu" or name == "add":
                        result = (a + b) & 0xFFFFFFFF
                    elif name == "subu" or name == "sub":
                        result = (a - b) & 0xFFFFFFFF
                    elif name == "and":
                        result = a & b
                    elif name == "or":
                        result = a | b
                    elif name == "xor":
                        result = a ^ b
                    elif name == "nor":
                        result = (~(a | b)) & 0xFFFFFFFF
                    elif name == "slt":
                        result = 1 if bits.to_s32(a) < bits.to_s32(b) else 0
                    else:  # sltu
                        result = 1 if a < b else 0
                    outputs = (result,)
                    dest_reg, dest_value = instr.rd, result
                    if dest_reg:
                        regs[dest_reg] = result
                elif fmt == Format.SHIFT:
                    value = regs[instr.rt]
                    inputs = (value,)
                    if name == "sll":
                        result = (value << instr.shamt) & 0xFFFFFFFF
                    elif name == "srl":
                        result = value >> instr.shamt
                    else:  # sra
                        result = bits.sra32(value, instr.shamt)
                    outputs = (result,)
                    dest_reg, dest_value = instr.rd, result
                    if dest_reg:
                        regs[dest_reg] = result
                elif fmt == Format.R3_SHIFTV:
                    value = regs[instr.rt]
                    amount = regs[instr.rs]
                    inputs = (value, amount)
                    if name == "sllv":
                        result = (value << (amount & 31)) & 0xFFFFFFFF
                    elif name == "srlv":
                        result = value >> (amount & 31)
                    else:  # srav
                        result = bits.sra32(value, amount)
                    outputs = (result,)
                    dest_reg, dest_value = instr.rd, result
                    if dest_reg:
                        regs[dest_reg] = result
                elif kind == Kind.BRANCH:
                    if kind_counts is not None:
                        kind_counts[0] += 1
                    a = regs[instr.rs]
                    if fmt == Format.BR2:
                        b = regs[instr.rt]
                        inputs = (a, b)
                        taken = (a == b) if name == "beq" else (a != b)
                    else:
                        inputs = (a,)
                        signed = bits.to_s32(a)
                        if name == "blez":
                            taken = signed <= 0
                        elif name == "bgtz":
                            taken = signed > 0
                        elif name == "bltz":
                            taken = signed < 0
                        else:  # bgez
                            taken = signed >= 0
                    outputs = (1,) if taken else (0,)
                    if taken:
                        next_pc = instr.target
                elif fmt == Format.LUI:
                    result = (instr.imm << 16) & 0xFFFFFFFF
                    outputs = (result,)
                    dest_reg, dest_value = instr.rt, result
                    if dest_reg:
                        regs[dest_reg] = result
                elif kind == Kind.JUMP:
                    next_pc = instr.target
                elif kind == Kind.CALL:
                    if fmt == Format.J:  # jal
                        target = instr.target
                        link_reg = RA
                    else:  # jalr
                        target = regs[instr.rs]
                        inputs = (target,)
                        link_reg = instr.rd
                    return_addr = pc + 4
                    dest_reg, dest_value = link_reg, return_addr
                    if link_reg:
                        regs[link_reg] = return_addr
                    next_pc = target
                    call_edge = (target, return_addr)
                elif kind == Kind.JUMP_REG:
                    target = regs[instr.rs]
                    inputs = (target,)
                    next_pc = target
                    if instr.rs == RA:
                        return_edge = target
                elif kind == Kind.MULDIV:
                    a = regs[instr.rs]
                    b = regs[instr.rt]
                    inputs = (a, b)
                    if name == "mult":
                        self.hi, self.lo = bits.mult32(a, b)
                    elif name == "multu":
                        self.hi, self.lo = bits.multu32(a, b)
                    elif name == "div":
                        self.hi, self.lo = bits.div32(a, b)
                    else:  # divu
                        self.hi, self.lo = bits.divu32(a, b)
                    outputs = (self.hi, self.lo)
                elif kind == Kind.MFHILO:
                    value = self.hi if name == "mfhi" else self.lo
                    inputs = (value,)
                    outputs = (value,)
                    dest_reg, dest_value = instr.rd, value
                    if dest_reg:
                        regs[dest_reg] = value
                elif kind == Kind.SYSCALL:
                    service = regs[V0]
                    arg = regs[A0]
                    inputs = (service, arg)
                    result, halt_after = syscalls.handle(service, arg, memory)
                    if result is not None:
                        outputs = (result,)
                        dest_reg, dest_value = V0, result
                        regs[V0] = result
                    syscall_event = SyscallEvent(
                        pc,
                        service,
                        arg,
                        result,
                        service in SyscallHandler.INPUT_SERVICES,
                        service in SyscallHandler.OUTPUT_SERVICES,
                        warmup,
                    )
                elif kind == Kind.NOP:
                    pass
                else:  # pragma: no cover - opcode table is exhaustive
                    raise SimError(f"unimplemented opcode {name}", pc)

                total += 1
                if not warmup:
                    analyzed += 1
                    record = StepRecord(
                        analyzed,
                        pc,
                        instr,
                        inputs,
                        outputs,
                        dest_reg,
                        dest_value,
                        mem_addr,
                        store_value,
                    )
                    for hook in step_hooks:
                        hook(record)
                if syscall_event is not None:
                    for analyzer in analyzers:
                        analyzer.on_syscall(syscall_event)
                if call_edge is not None:
                    self._emit_call(pc, call_edge[0], call_edge[1], warmup)
                elif return_edge is not None:
                    self._emit_return(pc, return_edge, warmup)

                if halt_after:
                    stop_reason = "exit"
                    break
                pc = next_pc
        finally:
            self.pc = pc
            self._total = total
            self._analyzed = analyzed
        return stop_reason
