"""Local (within-function) analysis (the paper's Section 5.3).

Dynamic instructions are binned into the paper's ten categories using two
criteria:

*Task-based* (identified structurally, highest precedence):

* ``prologue`` — stores of still-uninitialized (callee-saved) registers
  to the stack, and stack-frame allocation (``addiu $sp, $sp, -N``);
* ``epilogue`` — loads that read back prologue-saved slots, and frame
  deallocation;
* ``return`` — ``jr $ra``;
* remaining categories come from per-frame *source tags* below.

*Source-based* (dataflow tags, reset at every function entry, combined
with the paper's local supersede rule ``argument > return value >
(global, heap) > function internal``):

* ``arguments`` — slices rooted at the incoming ``$a`` registers;
* ``return values`` — slices rooted at ``$v0`` after a call (or after a
  value-returning syscall, which models the C library's getchar/malloc);
* ``global`` / ``heap`` — slices rooted at loads from the data segment /
  the heap;
* ``glb_addr_calc`` — slices computing global addresses: operations on
  ``$gp`` and ``lui``/``ori`` pairs that synthesize data-segment
  addresses;
* ``SP`` — arithmetic on the stack pointer (local address formation);
* ``function internals`` — slices rooted only at immediates.

The tag priorities encode the supersede rule so combining is ``max``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.asm.program import FunctionInfo, Program
from repro.isa.convention import DATA_BASE, HEAP_BASE, STACK_LIMIT, STACK_TOP
from repro.isa.instructions import Format, Instruction, Kind
from repro.isa.registers import A0, GP, NUM_REGISTERS, RA, SP, V0, ZERO
from repro.sim.events import CallEvent, ReturnEvent, SyscallEvent
from repro.sim.observer import Analyzer, StepFn
from repro.core.global_analysis import CategoryStats
from repro.core.repetition import RepetitionTracker

# Local source tags, priority-ordered for the supersede rule (max-combine):
# argument > return value > (heap, global) > glb-addr > sp-addr > internal.
UNINIT = 0
INTERNAL = 1
SP_ADDR = 2
GLB_ADDR = 3
GLOBAL = 4
HEAP = 5
RETVAL = 6
ARG = 7

_TAG_CATEGORY = {
    UNINIT: "function internals",
    INTERNAL: "function internals",
    SP_ADDR: "SP",
    GLB_ADDR: "glb_addr_calc",
    GLOBAL: "global",
    HEAP: "heap",
    RETVAL: "return values",
    ARG: "arguments",
}

#: Row order of Tables 5/6/7.
CATEGORY_ORDER = (
    "prologue",
    "epilogue",
    "function internals",
    "glb_addr_calc",
    "return",
    "SP",
    "return values",
    "arguments",
    "global",
    "heap",
)


class _LocalFrame:
    """Per-activation tag state."""

    __slots__ = ("function", "reg_tags", "hilo_tag", "prologue_slots")

    def __init__(self, function: Optional[FunctionInfo], args: Tuple[int, ...]) -> None:
        self.function = function
        tags = [UNINIT] * NUM_REGISTERS
        tags[ZERO] = INTERNAL
        tags[GP] = GLB_ADDR
        tags[SP] = SP_ADDR
        argc = function.num_args if function is not None else 0
        for index in range(argc):
            tags[A0 + index] = ARG
        self.reg_tags = tags
        self.hilo_tag = UNINIT
        #: Stack word addresses written by prologue stores of this frame.
        self.prologue_slots: set = set()


@dataclass
class ProEpiContributor:
    """Table 9 row: one function's prologue+epilogue contribution."""

    name: str
    static_size: int
    repeated: int
    total: int


@dataclass
class LocalAnalysisReport:
    """Tables 5, 6, 7 and the Table 9 contributor list."""

    categories: Dict[str, CategoryStats]
    dynamic_total: int
    dynamic_repeated: int
    prologue_epilogue_by_function: Dict[str, ProEpiContributor] = field(
        repr=False, default_factory=dict
    )

    def overall_pct(self, name: str) -> float:
        stats = self.categories[name]
        return 100.0 * stats.total / self.dynamic_total if self.dynamic_total else 0.0

    def repeated_pct(self, name: str) -> float:
        stats = self.categories[name]
        return 100.0 * stats.repeated / self.dynamic_repeated if self.dynamic_repeated else 0.0

    def propensity_pct(self, name: str) -> float:
        return self.categories[name].propensity_pct

    def top_prologue_contributors(self, count: int = 5) -> List[ProEpiContributor]:
        """Table 9: top functions by prologue+epilogue repetition."""
        contributors = sorted(
            self.prologue_epilogue_by_function.values(),
            key=lambda c: c.repeated,
            reverse=True,
        )
        return contributors[:count]

    def prologue_coverage_pct(self, count: int = 5) -> float:
        """Table 9 'coverage': share of prologue+epilogue repetition from
        the top ``count`` functions."""
        total = sum(c.repeated for c in self.prologue_epilogue_by_function.values())
        if not total:
            return 0.0
        top = self.top_prologue_contributors(count)
        return 100.0 * sum(c.repeated for c in top) / total


def _frame_task_counter(
    tracker: RepetitionTracker, proepi: Dict[str, List[int]]
) -> Callable[[CategoryStats, _LocalFrame, int], None]:
    """Counts one prologue/epilogue step ``n``, also against its function."""

    def count(stats: CategoryStats, frame: _LocalFrame, n: int) -> None:
        stats.total += 1
        repeated = tracker.last_was_repeated
        if repeated:
            stats.repeated += 1
        if frame.function is not None:
            entry = proepi.get(frame.function.name)
            if entry is None:
                entry = proepi[frame.function.name] = [0, 0]
            entry[0] += 1
            if repeated:
                entry[1] += 1

    return count


class LocalAnalyzer(Analyzer):
    """Bins instructions into the paper's local categories.

    Takes the :class:`RepetitionTracker` attached *earlier* in the
    analyzer list, for the repeated-per-category split.
    """

    def __init__(self, tracker: RepetitionTracker) -> None:
        self.tracker = tracker
        self.stats = {name: CategoryStats() for name in CATEGORY_ORDER}
        self._stats_by_tag = [self.stats[_TAG_CATEGORY[tag]] for tag in sorted(_TAG_CATEGORY)]
        self._stack: List[_LocalFrame] = [_LocalFrame(None, ())]
        #: Stack-segment word address -> local tag of the stored value.
        self._stack_mem_tags: Dict[int, int] = {}
        self._program: Optional[Program] = None
        #: function name -> [prologue+epilogue total, repeated].
        self._proepi: Dict[str, List[int]] = {}
        self._count_frame_task = _frame_task_counter(tracker, self._proepi)
        #: Compiled steps by static shape (opcode, registers, immediate sign).
        self._shapes: Dict[tuple, StepFn] = {}

    @property
    def dynamic_total(self) -> int:
        return sum(stats.total for stats in self.stats.values())

    @property
    def dynamic_repeated(self) -> int:
        return sum(stats.repeated for stats in self.stats.values())

    def on_start(self, program: Program) -> None:
        self._program = program

    # -- call boundaries -----------------------------------------------------

    def on_call(self, event: CallEvent) -> None:
        self._stack.append(_LocalFrame(event.function, event.args))

    def on_return(self, event: ReturnEvent) -> None:
        if len(self._stack) > 1:
            self._stack.pop()
        # In the caller, $v0 now carries a returned value.
        self._stack[-1].reg_tags[V0] = RETVAL

    def on_syscall(self, event: SyscallEvent) -> None:
        # A value-returning syscall plays the role of a C-library call
        # (getchar/malloc): its result starts a return-value slice.
        if event.result is not None:
            self._stack[-1].reg_tags[V0] = RETVAL

    # -- classification --------------------------------------------------------

    def compile_step(self, pc: int, instr: Instruction) -> StepFn:
        """One closure per kind; each ends by binning the step's category.

        Register indices, sources, destinations, the ``lui`` test and the
        stack-frame ``addiu`` test are fixed here.  The step does not
        depend on ``pc``, so instructions of the same shape share one
        closure.  The closures hold the analyzer's state containers, never
        the analyzer itself, so the shape memo creates no reference cycle.
        """
        self.tracker.check_compiled(pc)
        shape = (instr.op, instr.rd, instr.rs, instr.rt, instr.imm < 0)
        step = self._shapes.get(shape)
        if step is not None:
            return step
        op = instr.op
        kind = op.kind
        tracker = self.tracker
        count_frame_task = self._count_frame_task
        stack = self._stack
        stack_mem_tags = self._stack_mem_tags
        by_tag = self._stats_by_tag
        rs, rt = instr.rs, instr.rt

        if kind == Kind.STORE:
            prologue = self.stats["prologue"]

            def step(n, inputs, outputs, value, address) -> None:
                frame = stack[-1]
                value_tag = frame.reg_tags[rt]
                if STACK_LIMIT <= address <= STACK_TOP:
                    word = address & ~3
                    if value_tag == UNINIT:
                        # Saving a still-uninitialized (callee-saved) register.
                        frame.prologue_slots.add(word)
                        stack_mem_tags[word] = UNINIT
                        count_frame_task(prologue, frame, n)
                        return
                    stack_mem_tags[word] = value_tag
                # The store belongs to the *data* slice it writes; the base
                # address (SP/gp-derived) does not reclassify it.
                stats = by_tag[value_tag]
                stats.total += 1
                if tracker.last_was_repeated:
                    stats.repeated += 1

        elif kind == Kind.LOAD:
            epilogue = self.stats["epilogue"]

            def step(n, inputs, outputs, value, address) -> None:
                frame = stack[-1]
                if DATA_BASE <= address < HEAP_BASE:
                    tag = GLOBAL
                elif HEAP_BASE <= address < STACK_LIMIT:
                    tag = HEAP
                else:
                    word = address & ~3
                    if word in frame.prologue_slots:
                        if rt:
                            frame.reg_tags[rt] = UNINIT
                        count_frame_task(epilogue, frame, n)
                        return
                    tag = stack_mem_tags.get(word, UNINIT)
                if rt:
                    frame.reg_tags[rt] = tag
                stats = by_tag[tag]
                stats.total += 1
                if tracker.last_was_repeated:
                    stats.repeated += 1

        elif kind == Kind.ALU and rt == SP and rs == SP and op.name == "addiu":
            # Stack frame allocation / deallocation.
            frame_stats = self.stats["prologue" if instr.imm < 0 else "epilogue"]

            def step(n, inputs, outputs, value, address) -> None:
                count_frame_task(frame_stats, stack[-1], n)

        elif kind == Kind.MULDIV:

            def step(n, inputs, outputs, value, address) -> None:
                frame = stack[-1]
                tags = frame.reg_tags
                tag = tags[rs]
                other = tags[rt]
                if other > tag:
                    tag = other
                frame.hilo_tag = tag
                stats = by_tag[tag]
                stats.total += 1
                if tracker.last_was_repeated:
                    stats.repeated += 1

        elif kind == Kind.MFHILO:
            rd = instr.rd

            def step(n, inputs, outputs, value, address) -> None:
                frame = stack[-1]
                tag = frame.hilo_tag
                if rd:
                    frame.reg_tags[rd] = tag
                stats = by_tag[tag]
                stats.total += 1
                if tracker.last_was_repeated:
                    stats.repeated += 1

        elif op.name == "lui":
            dest = instr.dest_register() or 0

            def step(n, inputs, outputs, value, address) -> None:
                if DATA_BASE <= value < HEAP_BASE:
                    # Synthesizing the upper half of a global address.
                    tag = GLB_ADDR
                else:
                    tag = INTERNAL
                if dest:
                    stack[-1].reg_tags[dest] = tag
                stats = by_tag[tag]
                stats.total += 1
                if tracker.last_was_repeated:
                    stats.repeated += 1

        else:
            # The rest are binned by the supersede of their source tags,
            # or by a fixed category when they read none.
            category = None
            if kind == Kind.SYSCALL:
                sources: Tuple[int, ...] = (V0, A0)
            elif kind == Kind.JUMP_REG:
                sources = (rs,)
                if rs == RA:
                    category = "return"
            elif kind == Kind.CALL:
                sources = () if op.fmt == Format.J else (rs,)
            elif kind == Kind.JUMP or kind == Kind.NOP:
                sources = ()
            else:  # ALU and branches
                sources = instr.source_registers()
            if category is None and not sources:
                category = "function internals"
            # A call's link register starts a fresh internal slice; an
            # ALU result takes its slice's tag (uninit counts as internal).
            link = kind == Kind.CALL
            dest = (instr.dest_register() or 0) if link or kind == Kind.ALU else 0

            if category is not None:
                stats = self.stats[category]

                def step(n, inputs, outputs, value, address) -> None:
                    if dest:
                        stack[-1].reg_tags[dest] = INTERNAL
                    stats.total += 1
                    if tracker.last_was_repeated:
                        stats.repeated += 1

            else:
                a = sources[0]
                b = sources[-1]

                def step(n, inputs, outputs, value, address) -> None:
                    tags = stack[-1].reg_tags
                    tag = tags[a]
                    other = tags[b]
                    if other > tag:
                        tag = other
                    if dest:
                        tags[dest] = INTERNAL if link or tag == UNINIT else tag
                    stats = by_tag[tag]
                    stats.total += 1
                    if tracker.last_was_repeated:
                        stats.repeated += 1

        self._shapes[shape] = step
        return step

    # -- reporting ------------------------------------------------------------

    def report(self) -> LocalAnalysisReport:
        contributors: Dict[str, ProEpiContributor] = {}
        for name, (total, repeated) in self._proepi.items():
            size = 0
            if self._program is not None:
                info = self._program.function_by_name(name)
                size = info.size if info is not None else 0
            contributors[name] = ProEpiContributor(name, size, repeated, total)
        return LocalAnalysisReport(
            categories=dict(self.stats),
            dynamic_total=self.dynamic_total,
            dynamic_repeated=self.dynamic_repeated,
            prologue_epilogue_by_function=contributors,
        )
