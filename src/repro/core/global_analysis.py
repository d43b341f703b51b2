"""Global source-slice analysis (the paper's Section 5.1, Table 3).

Every value in the machine is tagged with the ultimate *source* of the
dynamic slice it belongs to:

* ``external input`` — produced (transitively) from a read syscall;
* ``global init data`` — originates at a load of statically-initialized
  data-segment memory;
* ``program internals`` — originates from immediates (and values computed
  only from immediates);
* ``uninit`` — an uninitialized register or memory word.

Tags propagate along dataflow.  Where slices meet, the paper's supersede
rule applies: ``external > global-init > internal > uninit`` — encoded
here as a numeric priority so "combine" is just ``max``.

Each dynamic instruction is categorized by the supersede of its input
tags, and the analyzer reports, per category: overall share, share of
repeated instructions, and propensity (fraction of the category that is
repeated) — the three panels of Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set, Tuple

from repro.asm.program import Program
from repro.isa.convention import segment_of
from repro.isa.instructions import Format, Instruction, Kind
from repro.isa.registers import A0, GP, NUM_REGISTERS, RA, SP, V0, ZERO
from repro.sim.events import SyscallEvent
from repro.sim.observer import Analyzer, StepFn
from repro.core.repetition import RepetitionTracker

# Tag priorities: the supersede rule is combine-by-max.
UNINIT = 0
INTERNAL = 1
GLOBAL_INIT = 2
EXTERNAL = 3

TAG_NAMES = {
    UNINIT: "uninit",
    INTERNAL: "internals",
    GLOBAL_INIT: "global init data",
    EXTERNAL: "external input",
}

#: Display order used by Table 3.
CATEGORY_ORDER = ("internals", "global init data", "external input", "uninit")


@dataclass
class CategoryStats:
    """Counters for one source category."""

    total: int = 0
    repeated: int = 0

    @property
    def propensity_pct(self) -> float:
        return 100.0 * self.repeated / self.total if self.total else 0.0


@dataclass
class GlobalAnalysisReport:
    """Table 3: per-category overall / repeated / propensity numbers."""

    categories: Dict[str, CategoryStats]
    dynamic_total: int
    dynamic_repeated: int

    def overall_pct(self, name: str) -> float:
        stats = self.categories[name]
        return 100.0 * stats.total / self.dynamic_total if self.dynamic_total else 0.0

    def repeated_pct(self, name: str) -> float:
        stats = self.categories[name]
        return 100.0 * stats.repeated / self.dynamic_repeated if self.dynamic_repeated else 0.0

    def propensity_pct(self, name: str) -> float:
        return self.categories[name].propensity_pct


class GlobalSourceAnalyzer(Analyzer):
    """Propagates source tags and bins instructions into Table 3 categories.

    Takes the :class:`RepetitionTracker` attached *earlier* in the
    analyzer list, so the per-step repetition flag is fresh.
    """

    def __init__(self, tracker: RepetitionTracker) -> None:
        self.tracker = tracker
        self.reg_tags = [UNINIT] * NUM_REGISTERS
        #: One-element cell: the tag of the hi/lo pair.
        self._hilo_tag = [UNINIT]
        #: Word-address -> tag, for memory written during execution.
        self.mem_tags: Dict[int, int] = {}
        self.stats = {name: CategoryStats() for name in TAG_NAMES.values()}
        self._stats_by_tag = [self.stats[TAG_NAMES[tag]] for tag in sorted(TAG_NAMES)]
        #: Statically initialized data-segment words (filled by on_start).
        self._initialized_words: Set[int] = set()
        #: Compiled steps by static shape (opcode and registers).
        self._shapes: Dict[tuple, StepFn] = {}

    @property
    def dynamic_total(self) -> int:
        return sum(stats.total for stats in self.stats.values())

    @property
    def dynamic_repeated(self) -> int:
        return sum(stats.repeated for stats in self.stats.values())

    def on_start(self, program: Program) -> None:
        # The loader sets $zero/$gp/$sp to program constants.
        self.reg_tags[ZERO] = INTERNAL
        self.reg_tags[GP] = INTERNAL
        self.reg_tags[SP] = INTERNAL
        self.reg_tags[RA] = INTERNAL
        init_flags = program.data_initialized
        base = program.data_base
        initialized = self._initialized_words
        initialized.clear()
        for offset in range(0, len(init_flags) - 3, 4):
            word = base + offset
            if any(init_flags[offset : offset + 4]) and segment_of(word) == "data":
                initialized.add(word)

    # -- step compilation -----------------------------------------------------

    def compile_step(self, pc: int, instr: Instruction) -> StepFn:
        """One closure per kind; each ends by binning the step's tag.

        Register indices, sources and destinations are fixed here; the
        closures only read and write tags.  The step does not depend on
        ``pc``, so instructions of the same shape share one closure.  The
        closures hold the analyzer's state containers, never the analyzer
        itself, so the shape memo creates no reference cycle.
        """
        self.tracker.check_compiled(pc)
        shape = (instr.op, instr.rd, instr.rs, instr.rt)
        step = self._shapes.get(shape)
        if step is not None:
            return step
        op = instr.op
        kind = op.kind
        tracker = self.tracker
        reg_tags = self.reg_tags
        by_tag = self._stats_by_tag
        rs, rt = instr.rs, instr.rt

        if kind == Kind.LOAD:
            mem_tags = self.mem_tags
            initialized = self._initialized_words
            # A load into $zero leaves it tagged as a program constant.
            dest_is_zero = rt == ZERO

            def step(n, inputs, outputs, value, address) -> None:
                word = address & ~3
                mem_tag = mem_tags.get(word)
                if mem_tag is None:
                    mem_tag = GLOBAL_INIT if word in initialized else UNINIT
                tag = reg_tags[rs]
                if mem_tag > tag:
                    tag = mem_tag
                reg_tags[rt] = INTERNAL if dest_is_zero else tag
                stats = by_tag[tag]
                stats.total += 1
                if tracker.last_was_repeated:
                    stats.repeated += 1

        elif kind == Kind.STORE:
            mem_tags = self.mem_tags

            def step(n, inputs, outputs, value, address) -> None:
                tag = value_tag = reg_tags[rt]
                base_tag = reg_tags[rs]
                if base_tag > tag:
                    tag = base_tag
                mem_tags[address & ~3] = value_tag
                stats = by_tag[tag]
                stats.total += 1
                if tracker.last_was_repeated:
                    stats.repeated += 1

        elif kind == Kind.MULDIV:
            hilo_tag = self._hilo_tag

            def step(n, inputs, outputs, value, address) -> None:
                tag = reg_tags[rs]
                other = reg_tags[rt]
                if other > tag:
                    tag = other
                hilo_tag[0] = tag
                stats = by_tag[tag]
                stats.total += 1
                if tracker.last_was_repeated:
                    stats.repeated += 1

        elif kind == Kind.MFHILO:
            rd = instr.rd
            hilo_tag = self._hilo_tag

            def step(n, inputs, outputs, value, address) -> None:
                tag = hilo_tag[0]
                if rd != ZERO:
                    reg_tags[rd] = tag
                stats = by_tag[tag]
                stats.total += 1
                if tracker.last_was_repeated:
                    stats.repeated += 1

        else:
            # The rest take the supersede of their source tags and may
            # write one destination: the computed tag, or INTERNAL for a
            # call's link register.
            if kind == Kind.SYSCALL:
                # Category from $v0 (service number) and $a0 (argument);
                # the external tagging of read results is in on_syscall.
                sources: Tuple[int, ...] = (V0, A0)
            elif kind == Kind.JUMP or kind == Kind.NOP:
                sources = ()
            elif kind == Kind.CALL:
                sources = () if op.fmt == Format.J else (rs,)
            elif kind == Kind.JUMP_REG:
                sources = (rs,)
            else:
                sources = instr.source_registers()
            dest = 0
            if kind == Kind.CALL or kind == Kind.ALU:
                dest = instr.dest_register() or 0
            link = kind == Kind.CALL

            if not sources:
                # Immediate-only: lui, j, nop, jal.
                stats = by_tag[INTERNAL]

                def step(n, inputs, outputs, value, address) -> None:
                    if dest:
                        reg_tags[dest] = INTERNAL
                    stats.total += 1
                    if tracker.last_was_repeated:
                        stats.repeated += 1

            else:
                a = sources[0]
                b = sources[-1]

                def step(n, inputs, outputs, value, address) -> None:
                    tag = reg_tags[a]
                    other = reg_tags[b]
                    if other > tag:
                        tag = other
                    if dest:
                        reg_tags[dest] = INTERNAL if link else tag
                    stats = by_tag[tag]
                    stats.total += 1
                    if tracker.last_was_repeated:
                        stats.repeated += 1

        self._shapes[shape] = step
        return step

    def on_syscall(self, event: SyscallEvent) -> None:
        if event.is_input and event.result is not None:
            self.reg_tags[V0] = EXTERNAL
        elif event.result is not None:
            self.reg_tags[V0] = INTERNAL  # sbrk returns a program constant

    # -- reporting ------------------------------------------------------------

    def report(self) -> GlobalAnalysisReport:
        return GlobalAnalysisReport(
            categories=dict(self.stats),
            dynamic_total=self.dynamic_total,
            dynamic_repeated=self.dynamic_repeated,
        )
