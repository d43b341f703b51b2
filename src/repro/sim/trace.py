"""Execution-trace recording and replay.

The paper's methodology separates *generating* the dynamic instruction
stream (slow: functional simulation) from *analyzing* it.  A
:class:`TraceRecorder` captures the full event stream once; the resulting
:class:`EventTrace` replays into any set of analyzers without re-simulating —
useful when sweeping analysis parameters (buffer capacities, predictor
geometries) over an identical instruction stream, and for serializing
regression traces to disk.

The on-disk format is a compact little-endian binary stream (no pickle):
each event is a tag byte plus fixed/counted fields.  Traces reference
their program by text (instructions are re-bound via the program's text
segment at load time), so a trace file must be loaded with the same
program it was recorded from — a CRC-32 of the text segment guards
against mismatches.
"""

from __future__ import annotations

import struct
import zlib
from typing import BinaryIO, List, Optional, Sequence, Tuple, Union

from repro.asm.program import Program
from repro.sim.events import CallEvent, ReturnEvent, StepRecord, SyscallEvent
from repro.sim.observer import Analyzer, release_compiled_steps

_MAGIC = b"RTRC"
_VERSION = 3

_STEP = 0
_CALL = 1
_RETURN = 2
_SYSCALL = 3

_U32 = struct.Struct("<I")
_STEP_HEAD = struct.Struct("<BIIBB")  # tag, index, pc, n_inputs, n_outputs
_STEP_TAIL = struct.Struct("<BbI")  # flags, dest_reg, dest_value
_CALL_HEAD = struct.Struct("<BIIIBIIB")  # tag,pc,target,ra,argc,depth,sp,warmup
_RETURN_REC = struct.Struct("<BIIIIB")  # tag,pc,target,value,depth,warmup
_SYSCALL_REC = struct.Struct("<BIIIIBB")  # tag,pc,service,arg,result,flags,warmup

_FLAG_MEM = 1
_FLAG_STORE = 2
_FLAG_DEST = 4


def _program_fingerprint(program: Program) -> int:
    """CRC-32 of every text instruction's address and disassembly.

    Guards replay pairing.  It must not use ``hash()``: ``str`` hashes are
    salted per process, and a trace saved by one process must load in
    another.
    """
    value = 0
    for instr in program.text:
        value = zlib.crc32(f"{instr.addr:x} {instr.disassemble()}\n".encode(), value)
    return value


Event = Union[StepRecord, CallEvent, ReturnEvent, SyscallEvent]


class EventTrace:
    """A recorded event stream bound to its program."""

    def __init__(self, program: Program, events: Optional[List[Event]] = None) -> None:
        self.program = program
        self.events: List[Event] = events if events is not None else []

    def __len__(self) -> int:
        return len(self.events)

    @property
    def step_count(self) -> int:
        return sum(1 for event in self.events if isinstance(event, StepRecord))

    # -- replay ----------------------------------------------------------

    def replay(self, analyzers: Sequence[Analyzer]) -> None:
        """Deliver the recorded events to ``analyzers`` in order."""
        for analyzer in analyzers:
            analyzer.on_start(self.program)
        for event in self.events:
            if isinstance(event, StepRecord):
                for analyzer in analyzers:
                    analyzer.on_step(event)
            elif isinstance(event, CallEvent):
                for analyzer in analyzers:
                    analyzer.on_call(event)
            elif isinstance(event, ReturnEvent):
                for analyzer in analyzers:
                    analyzer.on_return(event)
            else:
                for analyzer in analyzers:
                    analyzer.on_syscall(event)
        for analyzer in analyzers:
            analyzer.on_finish()
            release_compiled_steps(analyzer)

    # -- serialization ------------------------------------------------------

    def save(self, stream: BinaryIO) -> None:
        stream.write(_MAGIC)
        stream.write(struct.pack("<HII", _VERSION, _program_fingerprint(self.program), len(self.events)))
        write = stream.write
        for event in self.events:
            if isinstance(event, StepRecord):
                flags = 0
                if event.mem_addr is not None:
                    flags |= _FLAG_MEM
                if event.store_value is not None:
                    flags |= _FLAG_STORE
                if event.dest_reg is not None:
                    flags |= _FLAG_DEST
                write(
                    _STEP_HEAD.pack(
                        _STEP, event.index, event.pc, len(event.inputs), len(event.outputs)
                    )
                )
                for value in event.inputs:
                    write(_U32.pack(value & 0xFFFFFFFF))
                for value in event.outputs:
                    write(_U32.pack(value & 0xFFFFFFFF))
                write(
                    _STEP_TAIL.pack(
                        flags,
                        event.dest_reg if event.dest_reg is not None else -1,
                        event.dest_value & 0xFFFFFFFF,
                    )
                )
                if flags & _FLAG_MEM:
                    write(_U32.pack(event.mem_addr & 0xFFFFFFFF))  # type: ignore[operator]
                if flags & _FLAG_STORE:
                    write(_U32.pack(event.store_value & 0xFFFFFFFF))  # type: ignore[operator]
            elif isinstance(event, CallEvent):
                write(
                    _CALL_HEAD.pack(
                        _CALL,
                        event.pc,
                        event.target,
                        event.return_addr,
                        len(event.args),
                        event.depth,
                        event.sp,
                        1 if event.warmup else 0,
                    )
                )
                for value in event.args:
                    write(_U32.pack(value & 0xFFFFFFFF))
            elif isinstance(event, ReturnEvent):
                write(
                    _RETURN_REC.pack(
                        _RETURN,
                        event.pc,
                        event.target,
                        event.return_value & 0xFFFFFFFF,
                        event.depth,
                        1 if event.warmup else 0,
                    )
                )
            else:
                flags = (1 if event.is_input else 0) | (2 if event.is_output else 0) | (
                    4 if event.result is not None else 0
                )
                write(
                    _SYSCALL_REC.pack(
                        _SYSCALL,
                        event.pc,
                        event.service,
                        event.arg & 0xFFFFFFFF,
                        (event.result or 0) & 0xFFFFFFFF,
                        flags,
                        1 if event.warmup else 0,
                    )
                )

    @classmethod
    def load(cls, stream: BinaryIO, program: Program) -> "EventTrace":
        """Read a trace saved by :meth:`save`; ``ValueError`` if it is not
        one, was recorded from another program, or is cut short."""
        if stream.read(4) != _MAGIC:
            raise ValueError("not a trace file")

        def read(size: int, what: str) -> bytes:
            data = stream.read(size)
            if len(data) != size:
                raise ValueError(f"corrupt trace: truncated {what}")
            return data

        version, fingerprint, count = struct.unpack("<HII", read(10, "header"))
        if version != _VERSION:
            raise ValueError(f"unsupported trace version {version}")
        if fingerprint != _program_fingerprint(program):
            raise ValueError("trace was recorded from a different program")

        def words(n: int, what: str) -> Tuple[int, ...]:
            return struct.unpack(f"<{n}I", read(4 * n, what)) if n else ()

        events: List[Event] = []
        for _ in range(count):
            tag = read(1, "event")[0]
            if tag == _STEP:
                index, pc, n_in, n_out = struct.unpack(
                    "<IIBB", read(_STEP_HEAD.size - 1, "step")
                )
                inputs = words(n_in, "step")
                outputs = words(n_out, "step")
                flags, dest_reg, dest_value = struct.unpack(
                    "<BbI", read(_STEP_TAIL.size, "step")
                )
                mem_addr = words(1, "step")[0] if flags & _FLAG_MEM else None
                store_value = words(1, "step")[0] if flags & _FLAG_STORE else None
                events.append(
                    StepRecord(
                        index,
                        pc,
                        program.instruction_at(pc),
                        inputs,
                        outputs,
                        dest_reg if flags & _FLAG_DEST else None,
                        dest_value,
                        mem_addr,
                        store_value,
                    )
                )
            elif tag == _CALL:
                pc, target, return_addr, argc, depth, sp, warmup = struct.unpack(
                    "<IIIBIIB", read(_CALL_HEAD.size - 1, "call event")
                )
                args = words(argc, "call event")
                events.append(
                    CallEvent(
                        pc,
                        target,
                        return_addr,
                        program.function_by_entry(target),
                        args,
                        depth,
                        sp,
                        bool(warmup),
                    )
                )
            elif tag == _RETURN:
                pc, target, value, depth, warmup = struct.unpack(
                    "<IIIIB", read(_RETURN_REC.size - 1, "return event")
                )
                function = program.function_at(pc)
                events.append(
                    ReturnEvent(pc, target, function, value, depth, bool(warmup))
                )
            elif tag == _SYSCALL:
                pc, service, arg, result, flags, warmup = struct.unpack(
                    "<IIIIBB", read(_SYSCALL_REC.size - 1, "syscall event")
                )
                events.append(
                    SyscallEvent(
                        pc,
                        service,
                        arg,
                        result if flags & 4 else None,
                        bool(flags & 1),
                        bool(flags & 2),
                        bool(warmup),
                    )
                )
            else:
                raise ValueError(f"corrupt trace: unknown tag {tag}")
        return cls(program, events)


class TraceRecorder(Analyzer):
    """Records the complete event stream into an :class:`EventTrace`."""

    def __init__(self) -> None:
        self._program: Optional[Program] = None
        self._events: List[Event] = []

    def on_start(self, program: Program) -> None:
        self._program = program

    def on_step(self, record: StepRecord) -> None:
        self._events.append(record)

    def on_call(self, event: CallEvent) -> None:
        self._events.append(event)

    def on_return(self, event: ReturnEvent) -> None:
        self._events.append(event)

    def on_syscall(self, event: SyscallEvent) -> None:
        self._events.append(event)

    def trace(self) -> EventTrace:
        if self._program is None:
            raise RuntimeError("recorder was never attached to a run")
        return EventTrace(self._program, self._events)
