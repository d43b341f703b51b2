"""Execution fast path: replay memoized traces instead of re-executing.

This is the performance-mode counterpart of
:class:`~repro.traces.analyzer.TraceReuseAnalyzer`.  Where the analyzer
observes every region of the record stream, the execution engine plants
*wrappers* on a static set of **anchors** — instructions that can start a
region (branch targets, boundary successors, function entries) — inside
the simulator's predecoded fast-path code list.  At an anchor the wrapper
probes the trace table against live machine state (registers, hi/lo, and
the actual memory words — no invalidation shadowing is needed when the
real memory is one attribute away) and:

* on a **hit** hands the run loop a ``(end_pc, CTRL_TRACE_HIT, trace,
  inner)`` tuple; the loop applies the trace's live-outs and advances its
  instruction counters by the trace length without executing the body;
* on a **miss** hands back a constant ``(pc, CTRL_TRACE_REC, inner,
  index)`` tuple; the loop calls :meth:`TraceExecutionEngine.record_from`,
  which executes the region through the *record-building* closures,
  feeds a :class:`~repro.traces.builder.TraceBuilder`, and installs the
  candidate if the safety filter admits it.

Replay must be invisible in the architectural state *and* in the
simulator's instruction accounting, so both paths are budget-capped: a
hit is only taken when the whole trace fits before the next window
boundary (end of warm-up, or the analysis ``limit``), and a recording
truncated by a window boundary is discarded rather than installed.

Regions that never pay for themselves (e.g. a loop body carrying an
induction variable — every iteration has different live-ins, so every
probe misses and every recording is dead weight) are *banned*: after
``max_futile_recordings`` recordings at an anchor without an intervening
hit, the wrapper is removed and the original closure restored in place,
making the steady-state overhead at such anchors exactly zero.

The interpreter engine gets the same fast path through
:meth:`TraceExecutionEngine.interp_step`, called at the top of its loop
(gated off whenever step records are being consumed, since replay skips
record delivery by construction).
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.isa.instructions import Format, Kind
from repro.sim import predecode
from repro.sim.predecode import CTRL_TRACE_HIT, CTRL_TRACE_REC
from repro.traces.builder import Feed, TraceBuilder, compile_feed
from repro.traces.safety import SafetyPolicy, check_candidate
from repro.traces.table import (
    DEFAULT_MAX_TRACE_LEN,
    DEFAULT_TRACE_CAPACITY,
    DEFAULT_TRACE_WAYS,
    TraceReuseTable,
)
from repro.traces.trace import (
    BOUNDARY_END,
    BOUNDARY_EXCLUDE,
    BOUNDARY_NONE,
    Trace,
    boundary_kind,
)

#: Recordings at one anchor without a hit before the anchor is banned.
DEFAULT_MAX_FUTILE_RECORDINGS = 4


@dataclass(frozen=True)
class TraceReuseConfig:
    """Knobs for the execution fast path (mirrors the analyzer's)."""

    capacity: int = DEFAULT_TRACE_CAPACITY
    ways: int = DEFAULT_TRACE_WAYS
    max_trace_len: int = DEFAULT_MAX_TRACE_LEN
    policy: SafetyPolicy = field(default_factory=SafetyPolicy)
    max_futile_recordings: int = DEFAULT_MAX_FUTILE_RECORDINGS


class TraceReuseState:
    """Mutable trace state shareable across simulator instances.

    Passing one state to several runs of the same program keeps the
    table (and the banned-anchor set) warm — the ablation benchmark uses
    this to measure steady-state replay rather than cold-table training.
    """

    def __init__(self, config: Optional[TraceReuseConfig] = None) -> None:
        self.config = config if config is not None else TraceReuseConfig()
        self.table = TraceReuseTable(
            self.config.capacity, self.config.ways, self.config.max_trace_len
        )
        #: Anchor pcs that stopped paying for themselves.
        self.banned: Set[int] = set()
        #: Recordings since the last hit, per anchor pc.
        self.futile: Dict[int, int] = {}


# Anchors are a property of the static program; cache like predecode's
# closure specs (id()-keyed, evicted when the program is collected).
_ANCHORS: "dict[int, FrozenSet[int]]" = {}


def anchor_candidates(program) -> FrozenSet[int]:
    """Text indices where a trace may begin.

    An instruction is an anchor when a region can start there — it is a
    branch/jump target, the successor of a trace boundary, a function
    entry, or the program entry — and it is not itself excluded from
    traces.  Computed-jump targets that are none of these are missed
    (statically unknowable), which only costs coverage, never safety.
    """
    key = id(program)
    anchors = _ANCHORS.get(key)
    if anchors is None:
        targets = set()
        for instr in program.text:
            kind = instr.op.kind
            if (
                kind is Kind.BRANCH
                or kind is Kind.JUMP
                or (kind is Kind.CALL and instr.op.fmt is Format.J)
            ):
                targets.add(instr.target)
        for function in program.functions:
            targets.add(function.entry)
        targets.add(program.entry)
        found = set()
        text_base = program.text_base
        after_boundary = True  # start of text
        for index, instr in enumerate(program.text):
            kind = boundary_kind(instr)
            if kind != BOUNDARY_EXCLUDE and (
                after_boundary or (text_base + (index << 2)) in targets
            ):
                found.add(index)
            after_boundary = kind != BOUNDARY_NONE
        anchors = _ANCHORS[key] = frozenset(found)
        weakref.finalize(program, _ANCHORS.pop, key, None)
    return anchors


class TraceExecutionEngine:
    """Per-simulator driver of the trace fast path."""

    def __init__(self, sim, state) -> None:
        if isinstance(state, TraceReuseConfig):
            state = TraceReuseState(state)
        self.sim = sim
        self.state = state
        self.anchors = anchor_candidates(sim.program)
        # Record-building closures, bound lazily on the first miss, and
        # the builder feed per text index, compiled on first recording.
        self._record_code: Optional[list] = None
        self._feeds: List[Optional[Feed]] = [None] * len(sim.program.text)
        # The live fast-path code list and the wrappers planted in it
        # (index -> original closure), so a ban can unwrap in place.
        self._code: Optional[list] = None
        self._wrapped: Dict[int, object] = {}
        self.hits = 0
        self.replayed_instructions = 0
        self.recordings = 0
        self.installs = 0
        self.rejections: Counter = Counter()
        self.truncated = 0
        self.bans = 0
        self._published: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # Predecoded engine: anchor wrappers
    # ------------------------------------------------------------------

    def wrap_fast(self, code: list) -> None:
        """Plant probe wrappers at every (unbanned) anchor of ``code``."""
        sim = self.sim
        state = self.state
        by_pc_get = state.table._by_pc.get
        banned = state.banned
        text_base = sim.program.text_base
        regs = sim.regs
        memory = sim.memory
        self._code = code
        self._wrapped.clear()
        for index in self.anchors:
            pc = text_base + (index << 2)
            if pc in banned:
                continue
            inner = code[index]
            rec = (pc, CTRL_TRACE_REC, inner, index)

            def wrapped(_pc=pc, _inner=inner, _rec=rec):
                entries = by_pc_get(_pc)
                if entries:
                    hi = sim.hi
                    lo = sim.lo
                    for trace in entries:
                        if trace.matches(regs, hi, lo, memory):
                            return (trace.end_pc, CTRL_TRACE_HIT, trace, _inner)
                return _rec

            self._wrapped[index] = inner
            code[index] = wrapped

    def _ban(self, pc: int, index: int) -> None:
        self.state.banned.add(pc)
        self.state.futile.pop(pc, None)
        self.bans += 1
        inner = self._wrapped.pop(index, None)
        if inner is not None and self._code is not None:
            self._code[index] = inner

    def note_hit(self, trace: Trace) -> None:
        """Account a taken replay (called by the run loops)."""
        self.hits += 1
        self.replayed_instructions += trace.length
        state = self.state
        if state.futile:
            state.futile.pop(trace.start_pc, None)
        state.table.promote(trace)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record_from(self, index: int, pc: int, remaining: int) -> Tuple[int, int]:
        """Execute the region at ``pc`` while recording a candidate.

        Executes through the record-building closures (architecturally
        identical to the fast closures), feeding each step to a builder.
        Returns ``(instructions_executed, next_pc)``; the caller advances
        its counters by exactly that many steps.  ``remaining`` caps how
        many instructions may execute before the current window boundary;
        a recording cut short by it is discarded (the candidate is not a
        full region) without counting against the anchor's futile budget.
        """
        sim = self.sim
        code = self._record_code
        if code is None:
            counts = sim._kind_counts
            if counts is not None:
                code = self._record_code = predecode.bind_full_counted(sim, counts)
            else:
                code = self._record_code = predecode.bind_full(sim)
        program = sim.program
        text = program.text
        text_base = program.text_base
        text_len = len(text)
        feeds = self._feeds
        max_len = self.state.table.max_trace_len
        budget = max_len if max_len <= remaining else remaining
        anchor_pc = pc

        builder = TraceBuilder(pc, max_len)
        executed = 0
        natural_end = False
        off_text = False
        while True:
            kind = boundary_kind(text[index])
            if kind == BOUNDARY_EXCLUDE:
                natural_end = True
                break
            if executed >= budget:
                natural_end = executed >= max_len
                break
            record, pc, _ctrl = code[index](0)  # ctrl is None: no EXCLUDE here
            feed = feeds[index]
            if feed is None:
                feed = feeds[index] = compile_feed(text[index])
            feed(builder, record)
            executed += 1
            if kind == BOUNDARY_END:
                natural_end = True
                break
            index = (pc - text_base) >> 2
            if index < 0 or index >= text_len or pc & 3:
                # Fell off the text segment; the run loop raises on the
                # next dispatch.  Not a memoizable region.
                off_text = True
                break

        if natural_end:
            self.recordings += 1
            reason = check_candidate(builder, self.state.config.policy)
            if reason is None:
                self.state.table.install(builder.build(pc))
                self.installs += 1
            else:
                self.rejections[reason] += 1
            futile = self.state.futile
            count = futile.get(anchor_pc, 0) + 1
            if count >= self.state.config.max_futile_recordings:
                self._ban(anchor_pc, (anchor_pc - text_base) >> 2)
            else:
                futile[anchor_pc] = count
        elif not off_text:
            self.truncated += 1
        return executed, pc

    # ------------------------------------------------------------------
    # Interpreter engine hook
    # ------------------------------------------------------------------

    def interp_step(self, pc: int, index: int, remaining: int):
        """Fast-path attempt for the interpreter loop.

        Returns ``(instructions_consumed, next_pc)`` when the engine
        replayed or recorded at ``pc``, or ``None`` when the interpreter
        should execute the instruction normally.
        """
        if index not in self.anchors:
            return None
        state = self.state
        if pc in state.banned:
            return None
        sim = self.sim
        entries = state.table._by_pc.get(pc)
        if entries:
            regs = sim.regs
            hi = sim.hi
            lo = sim.lo
            memory = sim.memory
            for trace in entries:
                if trace.matches(regs, hi, lo, memory):
                    if trace.length <= remaining:
                        trace.apply(sim)
                        self.note_hit(trace)
                        return trace.length, trace.end_pc
                    return None
        return self.record_from(index, pc, remaining)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    _METRIC_NAMES = (
        "trace.exec.hits",
        "trace.exec.replayed_instructions",
        "trace.exec.recordings",
        "trace.exec.installs",
        "trace.exec.rejected",
        "trace.exec.truncated",
        "trace.exec.bans",
    )

    def publish(self, registry) -> None:
        """End-of-run counter snapshot (resume-safe deltas)."""
        published = self._published
        if published is None:
            published = self._published = [0] * len(self._METRIC_NAMES)
        values = (
            self.hits,
            self.replayed_instructions,
            self.recordings,
            self.installs,
            sum(self.rejections.values()),
            self.truncated,
            self.bans,
        )
        for index, name in enumerate(self._METRIC_NAMES):
            delta = values[index] - published[index]
            if delta:
                registry.counter(name).inc(delta)
                published[index] = values[index]
