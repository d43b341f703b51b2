"""Instruction repetition tracking (the paper's Section 3 methodology).

A dynamic instance of a static instruction is *repeated* iff its
``(inputs, outputs)`` pair matches one of the previously buffered unique
instances of that instruction.  Up to ``buffer_capacity`` (paper: 2000)
unique instances are buffered per static instruction; once the buffer is
full, new unique instances are neither buffered nor learned — exactly the
paper's setup.

The tracker feeds Table 1 (dynamic/static repetition percentages),
Table 2 (unique repeatable instances and average repeats), Figure 1
(static instruction coverage of repetition), Figure 3 (repetition by
unique-instance-count bucket), and Figure 4 (instance coverage of
repetition).  Other analyses that need a per-step "was this repeated?"
flag (Tables 3, 6, 7, 9, 10) read :attr:`last_was_repeated`, which is
valid for the most recent step delivered to the tracker — attach the
tracker *before* those analyzers so the flag is fresh.  Compiled
dependants check that order once per static instruction
(:meth:`RepetitionTracker.check_compiled`); ``on_step`` ones once per
step (:meth:`RepetitionTracker.was_repeated`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.analysis.coverage import bucket_label, bucket_shares
from repro.isa.instructions import Instruction
from repro.sim.events import StepRecord
from repro.sim.observer import Analyzer, StepFn

#: The paper buffers up to 2000 unique instances per static instruction.
DEFAULT_BUFFER_CAPACITY = 2000


class _StaticEntry:
    """Per-static-instruction repetition state."""

    __slots__ = ("executed", "repeated", "instances")

    def __init__(self) -> None:
        self.executed = 0
        self.repeated = 0
        #: (inputs, outputs) -> number of times *repeated* (0 = buffered
        #: but never repeated yet).
        self.instances: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int] = {}


@dataclass
class RepetitionReport:
    """Aggregated repetition statistics for one run."""

    dynamic_total: int
    dynamic_repeated: int
    static_executed: int
    static_repeated: int
    #: Total unique repeatable instances (buffered instances repeated >= 1x).
    unique_repeatable_instances: int
    #: Repeats per unique repeatable instance, unsorted.
    instance_repeat_counts: List[int] = field(repr=False, default_factory=list)
    #: Repeated-instruction count per repeated static instruction.
    static_repeat_weights: List[int] = field(repr=False, default_factory=list)
    #: Figure 3: bucket label -> repeated instructions from static
    #: instructions with that many unique repeatable instances.
    bucket_weights: Dict[str, int] = field(default_factory=dict)

    @property
    def dynamic_repeated_pct(self) -> float:
        return 100.0 * self.dynamic_repeated / self.dynamic_total if self.dynamic_total else 0.0

    @property
    def static_repeated_pct(self) -> float:
        """Percentage of executed static instructions that repeat."""
        return 100.0 * self.static_repeated / self.static_executed if self.static_executed else 0.0

    @property
    def average_repeats(self) -> float:
        """Table 2: average times each unique repeatable instance repeats."""
        if not self.unique_repeatable_instances:
            return 0.0
        return self.dynamic_repeated / self.unique_repeatable_instances

    def bucket_shares(self) -> Dict[str, float]:
        """Figure 3: share of repetition per unique-instance-count bucket."""
        return bucket_shares(self.bucket_weights)


class RepetitionTracker(Analyzer):
    """Tracks instruction repetition over the execution stream."""

    def __init__(self, buffer_capacity: int = DEFAULT_BUFFER_CAPACITY) -> None:
        if buffer_capacity < 1:
            raise ValueError("buffer_capacity must be positive")
        self.buffer_capacity = buffer_capacity
        #: pc -> state, in first-execution order (report lists follow it).
        self._static: Dict[int, _StaticEntry] = {}
        #: True iff the most recent step was classified repeated.
        self.last_was_repeated = False
        #: Index of the most recent step (for :meth:`was_repeated`'s check).
        self.last_index = -1

    @property
    def dynamic_total(self) -> int:
        return sum(entry.executed for entry in self._static.values())

    @property
    def dynamic_repeated(self) -> int:
        return sum(entry.repeated for entry in self._static.values())

    def compile_step(self, pc: int, instr: Instruction) -> StepFn:
        # Compilation happens at the instruction's first step, so creating
        # the entry here keeps _static in first-execution order.
        entry = self._static.get(pc)
        if entry is None:
            entry = self._static[pc] = _StaticEntry()
        instances = entry.instances
        capacity = self.buffer_capacity
        tracker = self

        def step(n, inputs, outputs, value, address) -> None:
            entry.executed += 1
            key = (inputs, outputs)
            count = instances.get(key)
            if count is not None:
                instances[key] = count + 1
                entry.repeated += 1
                tracker.last_was_repeated = True
            else:
                if len(instances) < capacity:
                    instances[key] = 0
                tracker.last_was_repeated = False
            tracker.last_index = n

        return step

    # -- reporting ---------------------------------------------------------

    def check_compiled(self, pc: int) -> None:
        """Raise unless this tracker has compiled the instruction at ``pc``.

        A compiled dependant calls this from its own ``compile_step``.
        Both engines and trace replay compile a pc in stack order, so
        this holds exactly when the tracker precedes the dependant in the
        same stack, and then :attr:`last_was_repeated` is fresh at every
        step of ``pc``.
        """
        if pc not in self._static:
            raise RuntimeError(
                f"RepetitionTracker has not compiled pc {pc:#x}; "
                "attach the tracker before dependent analyzers"
            )

    def was_repeated(self, record: StepRecord) -> bool:
        """Repetition flag for ``record`` (must be the most recent step)."""
        if record.index != self.last_index:
            raise RuntimeError(
                "RepetitionTracker.was_repeated() queried out of order; "
                "attach the tracker before dependent analyzers"
            )
        return self.last_was_repeated

    def report(self) -> RepetitionReport:
        """Aggregate the per-static state into a report."""
        static_repeated = 0
        unique_instances = 0
        instance_repeats: List[int] = []
        static_weights: List[int] = []
        buckets: Dict[str, int] = {}
        for entry in self._static.values():
            if entry.repeated == 0:
                continue
            static_repeated += 1
            static_weights.append(entry.repeated)
            repeatable = [c for c in entry.instances.values() if c > 0]
            unique_instances += len(repeatable)
            instance_repeats.extend(repeatable)
            if repeatable:
                label = bucket_label(len(repeatable))
                buckets[label] = buckets.get(label, 0) + entry.repeated
        return RepetitionReport(
            dynamic_total=self.dynamic_total,
            dynamic_repeated=self.dynamic_repeated,
            static_executed=len(self._static),
            static_repeated=static_repeated,
            unique_repeatable_instances=unique_instances,
            instance_repeat_counts=instance_repeats,
            static_repeat_weights=static_weights,
            bucket_weights=buckets,
        )

    # -- queries used by tests ----------------------------------------------

    def executed_count(self, pc: int) -> int:
        entry = self._static.get(pc)
        return entry.executed if entry else 0

    def repeated_count(self, pc: int) -> int:
        entry = self._static.get(pc)
        return entry.repeated if entry else 0

    def buffered_instances(self, pc: int) -> int:
        entry = self._static.get(pc)
        return len(entry.instances) if entry else 0
