"""Function-level analysis (the paper's Sections 5.2 and 6).

Tracks, per static function:

* argument repetition across dynamic calls — Table 4's *all-argument*
  and *no-argument* repetition percentages;
* the frequency distribution of argument tuples — Figure 5's coverage of
  all-argument repetition by the five most frequent argument sets;
* side effects and implicit inputs over each call's full dynamic extent
  (including callees) — Table 8's memoization-candidate percentages.

Side effects are stores to global (data-segment) or heap memory, output
syscalls, and heap allocation; implicit inputs are loads from global or
heap memory and input syscalls.  Both are detected with global event
counters snapshotted at call entry, so marking a whole call stack is
O(1) per event.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa.convention import DATA_BASE, STACK_LIMIT
from repro.isa.instructions import Instruction
from repro.sim.events import CallEvent, ReturnEvent, SyscallEvent
from repro.sim.observer import Analyzer, StepFn

#: The data and heap segments (adjacent, so one address range): memory
#: whose contents persist beyond a call's own frame.  Accesses here are
#: the paper's §5.2 purity events.
IMPURE_LOW, IMPURE_HIGH = DATA_BASE, STACK_LIMIT


@dataclass
class _FunctionStats:
    """Per-static-function call statistics."""

    name: str
    num_args: int
    calls: int = 0
    all_args_repeated: int = 0
    no_args_repeated: int = 0
    pure_calls: int = 0
    pure_all_repeated_calls: int = 0
    seen_tuples: set = field(default_factory=set, repr=False)
    seen_per_position: List[set] = field(default_factory=list, repr=False)
    tuple_counts: Counter = field(default_factory=Counter, repr=False)


class _Frame:
    __slots__ = (
        "stats",
        "all_repeated",
        "side_effects_at_entry",
        "implicit_at_entry",
        "counted",
    )

    def __init__(
        self,
        stats: Optional[_FunctionStats],
        all_repeated: bool,
        side_effects_at_entry: int,
        implicit_at_entry: int,
        counted: bool,
    ) -> None:
        self.stats = stats
        self.all_repeated = all_repeated
        self.side_effects_at_entry = side_effects_at_entry
        self.implicit_at_entry = implicit_at_entry
        self.counted = counted


@dataclass
class FunctionAnalysisReport:
    """Aggregates for Table 4, Table 8, and Figure 5."""

    num_functions: int
    dynamic_calls: int
    all_args_repeated: int
    no_args_repeated: int
    pure_calls: int
    pure_all_repeated_calls: int
    #: Figure 5: cumulative coverage of all-arg repetition by the top-k
    #: most frequent argument tuples, k = 1..5.
    top_k_coverage: Tuple[float, float, float, float, float]
    per_function: Dict[str, _FunctionStats] = field(repr=False, default_factory=dict)

    @property
    def all_args_repeated_pct(self) -> float:
        return 100.0 * self.all_args_repeated / self.dynamic_calls if self.dynamic_calls else 0.0

    @property
    def no_args_repeated_pct(self) -> float:
        return 100.0 * self.no_args_repeated / self.dynamic_calls if self.dynamic_calls else 0.0

    @property
    def pure_pct(self) -> float:
        """Table 8 column 2: % of dynamic calls without side effects or
        implicit inputs."""
        return 100.0 * self.pure_calls / self.dynamic_calls if self.dynamic_calls else 0.0

    @property
    def pure_all_repeated_pct(self) -> float:
        """Table 8 column 3: % of all-arg-repeated calls that are pure."""
        if not self.all_args_repeated:
            return 0.0
        return 100.0 * self.pure_all_repeated_calls / self.all_args_repeated


class FunctionAnalyzer(Analyzer):
    """Drives Table 4, Table 8, and Figure 5."""

    def __init__(self) -> None:
        self._functions: Dict[str, _FunctionStats] = {}
        self._stack: List[_Frame] = []
        # Global event counters (O(1) impurity tracking for whole stacks).
        self._side_effect_events = 0
        self._implicit_input_events = 0
        self.dynamic_calls = 0

    # -- call boundaries ----------------------------------------------------

    def on_call(self, event: CallEvent) -> None:
        stats: Optional[_FunctionStats] = None
        all_repeated = False
        counted = not event.warmup
        if event.function is not None:
            name = event.function.name
            stats = self._functions.get(name)
            if stats is None:
                stats = _FunctionStats(name, event.function.num_args)
                stats.seen_per_position = [set() for _ in range(event.function.num_args)]
                self._functions[name] = stats
            args = event.args
            seen_tuple = args in stats.seen_tuples
            if counted:
                stats.calls += 1
                self.dynamic_calls += 1
                if seen_tuple:
                    stats.all_args_repeated += 1
                    stats.tuple_counts[args] += 1
                    all_repeated = True
                if stats.num_args and all(
                    args[i] not in stats.seen_per_position[i] for i in range(stats.num_args)
                ):
                    stats.no_args_repeated += 1
            stats.seen_tuples.add(args)
            for i, value in enumerate(args):
                stats.seen_per_position[i].add(value)
        self._stack.append(
            _Frame(
                stats,
                all_repeated,
                self._side_effect_events,
                self._implicit_input_events,
                counted,
            )
        )

    def on_return(self, event: ReturnEvent) -> None:
        if not self._stack:
            return
        frame = self._stack.pop()
        if frame.stats is None or not frame.counted:
            return
        pure = (
            self._side_effect_events == frame.side_effects_at_entry
            and self._implicit_input_events == frame.implicit_at_entry
        )
        if pure:
            frame.stats.pure_calls += 1
            if frame.all_repeated:
                frame.stats.pure_all_repeated_calls += 1

    # -- impurity events -----------------------------------------------------

    def compile_step(self, pc: int, instr: Instruction) -> Optional[StepFn]:
        """Loads and stores only: count global/heap accesses."""
        if instr.is_store:
            return self._store_step
        if instr.is_load:
            return self._load_step
        return None

    def _store_step(self, n, inputs, outputs, value, address) -> None:
        if IMPURE_LOW <= address < IMPURE_HIGH:
            self._side_effect_events += 1

    def _load_step(self, n, inputs, outputs, value, address) -> None:
        if IMPURE_LOW <= address < IMPURE_HIGH:
            self._implicit_input_events += 1

    def on_syscall(self, event: SyscallEvent) -> None:
        if event.is_output:
            self._side_effect_events += 1
        elif event.is_input:
            self._implicit_input_events += 1
        else:
            # sbrk / exit mutate process state.
            self._side_effect_events += 1

    # -- reporting -----------------------------------------------------------

    def report(self) -> FunctionAnalysisReport:
        all_repeated = sum(s.all_args_repeated for s in self._functions.values())
        none_repeated = sum(s.no_args_repeated for s in self._functions.values())
        pure = sum(s.pure_calls for s in self._functions.values())
        pure_all = sum(s.pure_all_repeated_calls for s in self._functions.values())

        # Figure 5: coverage of all-arg repetition by top-k argument tuples.
        covered = [0] * 5
        for stats in self._functions.values():
            top = stats.tuple_counts.most_common(5)
            for k in range(5):
                covered[k] += sum(count for _, count in top[: k + 1])
        coverage = tuple(
            (100.0 * covered[k] / all_repeated if all_repeated else 0.0) for k in range(5)
        )
        return FunctionAnalysisReport(
            num_functions=len(self._functions),
            dynamic_calls=self.dynamic_calls,
            all_args_repeated=all_repeated,
            no_args_repeated=none_repeated,
            pure_calls=pure,
            pure_all_repeated_calls=pure_all,
            top_k_coverage=coverage,  # type: ignore[arg-type]
            per_function=dict(self._functions),
        )
