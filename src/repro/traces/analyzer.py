"""Analyzer-only trace reuse characterization (Table 10T).

Segments the observed dynamic stream into back-to-back regions at the
boundaries of :func:`~repro.isa.instructions.boundary_kind`, probes the
trace table at every region start, and on a miss records the region as
a new candidate.  No execution is skipped — this is pure measurement,
the trace-level analogue of :class:`repro.core.reuse_buffer.ReuseBuffer`
so Table 10T can put both capture rates side by side on the same run.

Validation needs the machine state *at the region start*, which an
analyzer does not have direct access to — so a shadow register file
(plus hi/lo) is reconstructed from the step stream: every observed
operand read and register write lands in the shadow, with ``None``
marking still-unknown values (a probe against an unknown conservatively
misses).  Memory live-ins are not shadowed at all; instead every
observed store invalidates resident traces whose live-ins it touches
(word granularity), so a resident trace's memory live-ins are always
fresh and probes skip memory validation entirely.

A missed region is recorded by keeping one tuple of values per step
(:data:`~repro.traces.template.Step`); when it ends, its
:class:`~repro.traces.template.RegionTemplate` (cached per start pc and
length, since a straight-line region's instructions are fixed by them)
says which of those values are its live-ins.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.isa.instructions import (
    BOUNDARY_END,
    BOUNDARY_EXCLUDE,
    Instruction,
    Kind,
    boundary_kind,
)
from repro.isa.registers import NUM_REGISTERS, V0
from repro.obs import metrics as obs_metrics
from repro.sim.observer import Analyzer, StepFn
from repro.traces.table import (
    DEFAULT_MAX_TRACE_LEN,
    DEFAULT_TRACE_CAPACITY,
    DEFAULT_TRACE_WAYS,
    TraceReuseTable,
)
from repro.traces.template import RegionTemplate, Step, register_reads
from repro.traces.trace import CLASS_NAMES, NUM_CLASSES, Trace

#: Fixed histogram buckets for the trace-length distribution panel.
LENGTH_BUCKETS: Tuple[Tuple[Optional[int], str], ...] = (
    (1, "1"),
    (2, "2"),
    (3, "3"),
    (7, "4-7"),
    (15, "8-15"),
    (None, "16+"),
)
LENGTH_BUCKET_LABELS: Tuple[str, ...] = tuple(label for _, label in LENGTH_BUCKETS)


def length_bucket(length: int) -> str:
    for bound, label in LENGTH_BUCKETS:
        if bound is None or length <= bound:
            return label
    return LENGTH_BUCKETS[-1][1]  # pragma: no cover - unreachable


@dataclass
class TraceReuseReport:
    """Table 10T numbers for one workload."""

    dynamic_total: int
    probes: int
    hits: int
    misses: int
    #: Dynamic instructions inside hit traces (the coverage numerator).
    covered_instructions: int
    traces_recorded: int
    rejections: Dict[str, int]
    invalidations: int
    evictions: int
    occupancy: int
    #: ``label -> hits`` over LENGTH_BUCKET_LABELS (hit-weighted).
    hit_length_hist: Dict[str, int] = field(default_factory=dict)
    #: Covered instructions per CLASS_NAMES slot.
    class_coverage: Tuple[int, ...] = (0,) * NUM_CLASSES
    recorded_length_total: int = 0
    recorded_length_max: int = 0

    @property
    def coverage_pct(self) -> float:
        """% of all dynamic instructions covered by trace hits — the
        trace-level counterpart of the buffer's ``hit_pct``."""
        if not self.dynamic_total:
            return 0.0
        return 100.0 * self.covered_instructions / self.dynamic_total

    @property
    def hit_rate_pct(self) -> float:
        """% of region-start probes that hit."""
        return 100.0 * self.hits / self.probes if self.probes else 0.0

    @property
    def mean_hit_length(self) -> float:
        return self.covered_instructions / self.hits if self.hits else 0.0

    def class_coverage_pct(self, name: str) -> float:
        """% of trace-covered instructions in class ``name``."""
        if not self.covered_instructions:
            return 0.0
        index = CLASS_NAMES.index(name)
        return 100.0 * self.class_coverage[index] / self.covered_instructions

    def hit_length_pct(self, label: str) -> float:
        """% of hits whose trace length falls in bucket ``label``."""
        if not self.hits:
            return 0.0
        return 100.0 * self.hit_length_hist.get(label, 0) / self.hits


class TraceReuseAnalyzer(Analyzer):
    """Measures trace-level reuse over the observed step stream."""

    def __init__(
        self,
        capacity: int = DEFAULT_TRACE_CAPACITY,
        ways: int = DEFAULT_TRACE_WAYS,
        max_trace_len: int = DEFAULT_MAX_TRACE_LEN,
    ) -> None:
        self.table = TraceReuseTable(capacity, ways, max_trace_len)
        self._shadow: list = [None] * NUM_REGISTERS
        self._shadow[0] = 0
        #: Shadow [hi, lo].
        self._shadow_hilo: List[Optional[int]] = [None, None]
        self._replaying = 0
        #: Steps of the region being recorded, or ``None``.
        self._region: Optional[List[Step]] = None
        #: The pc the region being recorded starts at.
        self._region_pc = 0
        #: The pc the region's next step has if the region is straight-line.
        self._next_pc = 0
        self._straight = True
        #: Templates of straight-line regions by ``(start pc, length)``.
        self._templates: Dict[Tuple[int, int], RegionTemplate] = {}
        #: The instruction each pc was compiled for.
        self._compiled_instrs: Dict[int, Instruction] = {}
        self.dynamic_total = 0
        self.probes = 0
        self.hits = 0
        self.covered_instructions = 0
        self.traces_recorded = 0
        self.rejections: Counter = Counter()
        self.hit_lengths: Counter = Counter()
        self.class_covered = [0] * NUM_CLASSES
        self.recorded_length_total = 0
        self.recorded_length_max = 0

    def compile_step(self, pc: int, instr: Instruction) -> StepFn:
        """Bind one static instruction's region logic and shadow update.

        The boundary kind, register reads and hi/lo effects are fixed
        here.  Store-based invalidation runs before the probe, mirroring
        the instruction buffer's order.

        A step recorded into a region only appends its values and checks
        that it sits at the fall-through pc of the step before; when the
        region ends, its template gathers the live-ins and applies the
        region's shadow effects.  Every other step updates the shadow
        itself after the region logic.  Templates are cached per
        ``(start pc, length)``, so they are dropped when a pc is compiled
        again for a different instruction.
        """
        compiled = self._compiled_instrs
        if compiled.setdefault(pc, instr) is not instr:
            compiled[pc] = instr
            self._templates.clear()
        analyzer = self
        table = self.table
        shadow = self._shadow
        shadow_hilo = self._shadow_hilo
        max_len = table.max_trace_len
        kind = instr.op.kind
        bk = boundary_kind(instr)
        hilo_update = self._hilo_update(instr)
        reads = register_reads(instr)
        dest = instr.dest_register() or 0

        if bk == BOUNDARY_EXCLUDE:
            # A syscall writes $v0 exactly when it returns a result.
            syscall = kind is Kind.SYSCALL
            if syscall:
                dest = V0

            def step(n, inputs, outputs, value, address) -> None:
                analyzer.dynamic_total += 1
                if analyzer._replaying:
                    # Inside a hit trace's body: already accounted.
                    analyzer._replaying -= 1
                elif analyzer._region is not None:
                    # The region ends *before* this instruction.  At a
                    # region start, it is its own (unprobeable) region;
                    # the next step starts fresh.
                    analyzer._finalize()
                if len(inputs) >= len(reads):
                    for reg, position in reads:
                        shadow[reg] = inputs[position]
                if dest and (outputs or not syscall):
                    shadow[dest] = value

            return step

        ends = bk == BOUNDARY_END
        store_width = instr.op.mem_width if kind is Kind.STORE else 0
        invalidate_store = table.invalidate_store
        lookup = table.lookup
        fallthrough = pc + 4

        def step(n, inputs, outputs, value, address) -> None:
            analyzer.dynamic_total += 1
            if store_width:
                invalidate_store(address, store_width)
            region = analyzer._region
            if region is not None:
                if pc != analyzer._next_pc:
                    analyzer._straight = False
                region.append((instr, inputs, outputs, value, address))
                if ends or len(region) >= max_len:
                    analyzer._finalize()
                else:
                    analyzer._next_pc = fallthrough
                return
            if analyzer._replaying:
                analyzer._replaying -= 1
            else:
                # Region start: probe, then start recording on a miss.
                analyzer.probes += 1
                hit = lookup(pc, shadow, shadow_hilo[0], shadow_hilo[1])
                if hit is None:
                    analyzer._region = [(instr, inputs, outputs, value, address)]
                    analyzer._region_pc = pc
                    analyzer._straight = True
                    if ends or max_len == 1:
                        analyzer._finalize()
                    else:
                        analyzer._next_pc = fallthrough
                    return
                analyzer._note_hit(hit)
            for reg, position in reads:
                shadow[reg] = inputs[position]
            if hilo_update is not None:
                hilo_update(inputs, outputs)
            if dest:
                shadow[dest] = value

        return step

    def _hilo_update(self, instr: Instruction) -> Optional[Callable[[tuple, tuple], None]]:
        """The shadow hi/lo effect of ``instr``, from its inputs and outputs."""
        shadow_hilo = self._shadow_hilo
        kind = instr.op.kind
        if kind is Kind.MULDIV:

            def update(inputs, outputs) -> None:
                shadow_hilo[0], shadow_hilo[1] = outputs

        elif kind is Kind.MFHILO and instr.op.name == "mfhi":

            def update(inputs, outputs) -> None:
                shadow_hilo[0] = inputs[0]

        elif kind is Kind.MFHILO:

            def update(inputs, outputs) -> None:
                shadow_hilo[1] = inputs[0]

        else:
            return None
        return update

    def _note_hit(self, hit: Trace) -> None:
        self.hits += 1
        self.covered_instructions += hit.length
        self.hit_lengths[hit.length] += 1
        covered = self.class_covered
        for index, count in enumerate(hit.class_counts):
            covered[index] += count
        self._replaying = hit.length - 1

    def _finalize(self) -> None:
        """End the region being recorded; install it if it is admitted.

        Its steps reach the shadow here, in one go.
        """
        steps = self._region
        self._region = None
        if self._straight:
            key = (self._region_pc, len(steps))
            template = self._templates.get(key)
            if template is None:
                template = self._templates[key] = RegionTemplate(self._region_pc, steps)
        else:
            template = RegionTemplate(self._region_pc, steps)
        template.update_shadow(steps, self._shadow, self._shadow_hilo)
        trace, reason = template.record(steps)
        if trace is None:
            self.rejections[reason] += 1
            return
        self.table.install(trace)
        self.traces_recorded += 1
        self.recorded_length_total += trace.length
        if trace.length > self.recorded_length_max:
            self.recorded_length_max = trace.length

    def on_finish(self) -> None:
        registry = obs_metrics.REGISTRY
        if registry.enabled:
            registry.counter("trace.probes").inc(self.probes)
            registry.counter("trace.hits").inc(self.hits)
            registry.counter("trace.covered_instructions").inc(
                self.covered_instructions
            )
            registry.counter("trace.recorded").inc(self.traces_recorded)
            registry.counter("trace.rejected").inc(sum(self.rejections.values()))
            registry.counter("trace.invalidations").inc(self.table.invalidations)
            registry.counter("trace.evictions").inc(self.table.evictions)
            registry.gauge("trace.occupancy").set(self.table.occupancy)

    def report(self) -> TraceReuseReport:
        hist: Dict[str, int] = {label: 0 for label in LENGTH_BUCKET_LABELS}
        for length, count in self.hit_lengths.items():
            hist[length_bucket(length)] += count
        return TraceReuseReport(
            dynamic_total=self.dynamic_total,
            probes=self.probes,
            hits=self.hits,
            misses=self.probes - self.hits,
            covered_instructions=self.covered_instructions,
            traces_recorded=self.traces_recorded,
            rejections=dict(self.rejections),
            invalidations=self.table.invalidations,
            evictions=self.table.evictions,
            occupancy=self.table.occupancy,
            hit_length_hist=hist,
            class_coverage=tuple(self.class_covered),
            recorded_length_total=self.recorded_length_total,
            recorded_length_max=self.recorded_length_max,
        )
