"""Global-load value profiling (the paper's Figure 6).

For every static load whose address falls in the data segment or the
heap, profile the distribution of loaded values.  Figure 6 asks: if the
slice rooted at each such load were specialized for that load's k most
frequent values (k = 1..5), what share of the load's *repetition* would
be covered?

A load instance counts as value-repetition when its loaded value was
seen before at the same static load (the first occurrence of each value
is the specialization's learning cost, not covered repetition).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.function_analysis import IMPURE_HIGH, IMPURE_LOW
from repro.isa.instructions import Instruction
from repro.sim.observer import Analyzer, StepFn

#: Per-static-load cap on distinct profiled values, bounding memory on
#: pathological loads (e.g. a pointer-chasing scan).  Values beyond the
#: cap still count toward the load's totals via the overflow bucket.
DEFAULT_VALUE_CAP = 4096


@dataclass
class ValueProfileReport:
    """Figure 6: coverage of global-load repetition by top-k values."""

    #: Cumulative coverage (percent) for k = 1..5.
    top_k_coverage: Tuple[float, float, float, float, float]
    #: Total dynamic global/heap loads profiled.
    loads_profiled: int
    #: Total value-repetition among them.
    load_repetition: int
    static_loads: int


class GlobalLoadValueProfiler(Analyzer):
    """Profiles loaded-value distributions of global/heap loads."""

    def __init__(self, value_cap: int = DEFAULT_VALUE_CAP) -> None:
        self.value_cap = value_cap
        self._profiles: Dict[int, Counter] = {}
        self._overflow: Dict[int, int] = {}
        self.loads_profiled = 0

    def compile_step(self, pc: int, instr: Instruction) -> Optional[StepFn]:
        """Loads only: profile values loaded from global or heap memory."""
        if not instr.is_load:
            return None
        analyzer = self
        profiles = self._profiles
        overflow = self._overflow
        cap = self.value_cap

        def step(n, inputs, outputs, value, address) -> None:
            if not IMPURE_LOW <= address < IMPURE_HIGH:
                return
            analyzer.loads_profiled += 1
            profile = profiles.get(pc)
            if profile is None:
                profile = profiles[pc] = Counter()
            if value in profile or len(profile) < cap:
                profile[value] += 1
            else:
                overflow[pc] = overflow.get(pc, 0) + 1

        return step

    def report(self) -> ValueProfileReport:
        covered = [0] * 5
        total_repetition = 0
        for pc, profile in self._profiles.items():
            # Repetition for this load: every occurrence beyond the first
            # per distinct value.  Overflowed (uncapped) values are treated
            # as unique, which can only understate coverage.
            repetition = sum(count - 1 for count in profile.values())
            total_repetition += repetition
            top = profile.most_common(5)
            for k in range(5):
                covered[k] += sum(count - 1 for _, count in top[: k + 1])
        coverage = tuple(
            (100.0 * covered[k] / total_repetition if total_repetition else 0.0)
            for k in range(5)
        )
        return ValueProfileReport(
            top_k_coverage=coverage,  # type: ignore[arg-type]
            loads_profiled=self.loads_profiled,
            load_repetition=total_repetition,
            static_loads=len(self._profiles),
        )
