"""Functional simulation substrate.

:class:`Simulator` executes a :class:`~repro.asm.program.Program` and
streams every retired instruction (positional values to compiled
analyzer steps, a :class:`StepRecord` to analyzers that override
``on_step``) plus call/return/syscall events to attached
:class:`Analyzer` objects — the instrumentation backend that the paper
built on SimpleScalar.
"""

from repro.sim.errors import SimError
from repro.sim.events import CallEvent, ReturnEvent, StepRecord, SyscallEvent
from repro.sim.memory import Memory
from repro.sim.observer import Analyzer
from repro.sim.simulator import (
    DEFAULT_ENGINE,
    ENGINES,
    HALT_ADDRESS,
    RunResult,
    Simulator,
)
from repro.sim.syscalls import EOF_WORD, InputStream, SyscallHandler
from repro.sim.timing import TimingConfig, TimingModel, TimingReport
from repro.sim.trace import EventTrace, TraceRecorder

__all__ = [
    "Analyzer",
    "CallEvent",
    "DEFAULT_ENGINE",
    "ENGINES",
    "EOF_WORD",
    "EventTrace",
    "HALT_ADDRESS",
    "InputStream",
    "Memory",
    "ReturnEvent",
    "RunResult",
    "SimError",
    "Simulator",
    "StepRecord",
    "SyscallEvent",
    "SyscallHandler",
    "TimingConfig",
    "TimingModel",
    "TimingReport",
    "TraceRecorder",
]
