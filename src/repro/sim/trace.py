"""Execution-trace recording and replay.

The paper's methodology separates *generating* the dynamic instruction
stream (slow: functional simulation) from *analyzing* it.  A
:class:`TraceRecorder` captures the full event stream once, in memory;
the resulting :class:`EventTrace` replays into any set of analyzers
without re-simulating.  Tests use it to check that live analysis equals
analysis of the recorded stream, and to feed one stream to several
analyzer stacks.

Replay delivers steps through each analyzer's ``on_step`` in stack order,
so a compiled analyzer compiles an instruction when its first record
arrives, as the reference interpreter does.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.asm.program import Program
from repro.sim.events import CallEvent, ReturnEvent, StepRecord, SyscallEvent
from repro.sim.observer import Analyzer, release_compiled_steps


Event = Union[StepRecord, CallEvent, ReturnEvent, SyscallEvent]


class EventTrace:
    """A recorded event stream bound to its program."""

    def __init__(self, program: Program, events: Optional[List[Event]] = None) -> None:
        self.program = program
        self.events: List[Event] = events if events is not None else []

    @property
    def step_count(self) -> int:
        return sum(1 for event in self.events if isinstance(event, StepRecord))

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
