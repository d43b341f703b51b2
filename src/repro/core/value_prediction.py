"""Value prediction (the paper's Section 7 companion mechanism).

Section 7 discusses two hardware approaches to exploiting repetition:
dynamic instruction *reuse* (:mod:`repro.core.reuse_buffer`) and *value
prediction* [Lipasti & Shen; Sazeides & Smith; Wang & Franklin].  The
paper argues its characterization "could be exploited to significantly
improve" such predictors; this module provides the predictors so that
claim can be explored:

* :class:`LastValuePredictor` — predicts an instruction's last result
  (Lipasti/Shen-style), with 2-bit confidence counters;
* :class:`StridePredictor` — last value + detected stride;
* :class:`ContextPredictor` — order-N finite-context-method predictor
  (Sazeides & Smith): a value-history hash indexes a second-level value
  table;
* :class:`HybridPredictor` — stride + context with confidence-based
  selection (Wang & Franklin's flavour).

:class:`ValuePredictionAnalyzer` drives any predictor over the execution
stream and reports accuracy over value-producing instructions, split by
whether the instruction instance was repeated (taking the shared
:class:`RepetitionTracker`, like the other repetition-splitting
analyzers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.repetition import RepetitionTracker
from repro.sim.events import StepRecord
from repro.sim.observer import Analyzer


class ValuePredictor:
    """Interface: predict the next result of the instruction at ``pc``."""

    name = "base"

    def predict(self, pc: int) -> Optional[int]:
        """Predicted value, or None when not confident."""
        raise NotImplementedError

    def update(self, pc: int, value: int) -> None:
        """Train with the actual produced value."""
        raise NotImplementedError


def _confidence_bump(counter: int, correct: bool, maximum: int = 3) -> int:
    if correct:
        return min(counter + 1, maximum)
    return max(counter - 1, 0)


class LastValuePredictor(ValuePredictor):
    """Predicts the last seen value, gated by a 2-bit confidence counter."""

    name = "last-value"

    def __init__(self, entries: int = 8192, threshold: int = 2) -> None:
        self.entries = entries
        self.threshold = threshold
        #: pc-indexed: value, confidence.
        self._table: Dict[int, List[int]] = {}

    def _slot(self, pc: int) -> int:
        return (pc >> 2) % self.entries

    def predict(self, pc: int) -> Optional[int]:
        entry = self._table.get(self._slot(pc))
        if entry is None or entry[1] < self.threshold:
            return None
        return entry[0]

    def update(self, pc: int, value: int) -> None:
        slot = self._slot(pc)
        entry = self._table.get(slot)
        if entry is None:
            self._table[slot] = [value, 1]
            return
        entry[1] = _confidence_bump(entry[1], entry[0] == value)
        entry[0] = value


class StridePredictor(ValuePredictor):
    """Predicts last value + stride (classifies constant sequences too:
    a zero stride degenerates to last-value prediction)."""

    name = "stride"

    def __init__(self, entries: int = 8192, threshold: int = 2) -> None:
        self.entries = entries
        self.threshold = threshold
        #: slot -> [last, stride, confidence]
        self._table: Dict[int, List[int]] = {}

    def _slot(self, pc: int) -> int:
        return (pc >> 2) % self.entries

    def predict(self, pc: int) -> Optional[int]:
        entry = self._table.get(self._slot(pc))
        if entry is None or entry[2] < self.threshold:
            return None
        return (entry[0] + entry[1]) & 0xFFFFFFFF

    def update(self, pc: int, value: int) -> None:
        slot = self._slot(pc)
        entry = self._table.get(slot)
        if entry is None:
            self._table[slot] = [value, 0, 0]
            return
        new_stride = (value - entry[0]) & 0xFFFFFFFF
        predicted = (entry[0] + entry[1]) & 0xFFFFFFFF
        entry[2] = _confidence_bump(entry[2], predicted == value)
        if new_stride != entry[1]:
            # Re-learn the stride; confidence was already penalized if
            # the prediction missed.
            entry[1] = new_stride
        entry[0] = value


class ContextPredictor(ValuePredictor):
    """Order-N finite context method predictor (Sazeides & Smith).

    Level 1 keeps the last ``order`` values per static instruction;
    level 2 maps a hash of that history to the value that followed it
    last time, with a confidence counter.
    """

    name = "context"

    def __init__(
        self, entries: int = 8192, order: int = 2, level2_entries: int = 65536,
        threshold: int = 1,
    ) -> None:
        self.entries = entries
        self.order = order
        self.level2_entries = level2_entries
        self.threshold = threshold
        self._history: Dict[int, Tuple[int, ...]] = {}
        #: level-2: hash -> [value, confidence]
        self._values: Dict[int, List[int]] = {}

    def _slot(self, pc: int) -> int:
        return (pc >> 2) % self.entries

    def _hash(self, pc: int, history: Tuple[int, ...]) -> int:
        mixed = pc
        for value in history:
            mixed = (mixed * 0x9E3779B1 + value) & 0xFFFFFFFF
        return mixed % self.level2_entries

    def predict(self, pc: int) -> Optional[int]:
        history = self._history.get(self._slot(pc))
        if history is None or len(history) < self.order:
            return None
        entry = self._values.get(self._hash(pc, history))
        if entry is None or entry[1] < self.threshold:
            return None
        return entry[0]

    def update(self, pc: int, value: int) -> None:
        slot = self._slot(pc)
        history = self._history.get(slot, ())
        if len(history) >= self.order:
            key = self._hash(pc, history)
            entry = self._values.get(key)
            if entry is None:
                self._values[key] = [value, 1]
            else:
                entry[1] = _confidence_bump(entry[1], entry[0] == value)
                entry[0] = value
        self._history[slot] = (history + (value,))[-self.order :]


class HybridPredictor(ValuePredictor):
    """Stride + context hybrid with per-pc chooser counters."""

    name = "hybrid"

    def __init__(self, entries: int = 8192, order: int = 2) -> None:
        self.stride = StridePredictor(entries)
        self.context = ContextPredictor(entries, order=order)
        #: chooser: >=2 prefers context.
        self._chooser: Dict[int, int] = {}
        self.entries = entries

    def _slot(self, pc: int) -> int:
        return (pc >> 2) % self.entries

    def predict(self, pc: int) -> Optional[int]:
        from_context = self.context.predict(pc)
        from_stride = self.stride.predict(pc)
        if from_context is None:
            return from_stride
        if from_stride is None:
            return from_context
        return from_context if self._chooser.get(self._slot(pc), 2) >= 2 else from_stride

    def update(self, pc: int, value: int) -> None:
        from_context = self.context.predict(pc)
        from_stride = self.stride.predict(pc)
        if from_context is not None and from_stride is not None:
            slot = self._slot(pc)
            counter = self._chooser.get(slot, 2)
            if (from_context == value) != (from_stride == value):
                counter = _confidence_bump(counter, from_context == value)
                self._chooser[slot] = counter
        self.stride.update(pc, value)
        self.context.update(pc, value)


@dataclass
class ValuePredictionReport:
    """Accuracy of one predictor over value-producing instructions."""

    predictor: str
    eligible: int
    attempted: int
    correct: int
    correct_on_repeated: int
    repeated_eligible: int

    @property
    def coverage_pct(self) -> float:
        """Share of eligible instructions the predictor attempted."""
        return 100.0 * self.attempted / self.eligible if self.eligible else 0.0

    @property
    def accuracy_pct(self) -> float:
        """Correct predictions among attempted ones."""
        return 100.0 * self.correct / self.attempted if self.attempted else 0.0

    @property
    def correct_of_all_pct(self) -> float:
        """Correct predictions over all eligible instructions."""
        return 100.0 * self.correct / self.eligible if self.eligible else 0.0

    @property
    def repeated_capture_pct(self) -> float:
        """Correct predictions over the *repeated* eligible instructions
        (comparable to Table 10's reuse-capture column)."""
        if not self.repeated_eligible:
            return 0.0
        return 100.0 * self.correct_on_repeated / self.repeated_eligible


class ValuePredictionAnalyzer(Analyzer):
    """Evaluates a value predictor over the execution stream.

    Eligible instructions are those producing a register value (loads,
    ALU ops, ...).  Accuracy is also split over repeated instances, from
    the shared tracker attached earlier in the analyzer list.
    """

    def __init__(self, predictor: ValuePredictor, tracker: RepetitionTracker) -> None:
        self.predictor = predictor
        self.tracker = tracker
        self.eligible = 0
        self.attempted = 0
        self.correct = 0
        self.correct_on_repeated = 0
        self.repeated_eligible = 0

    def on_step(self, record: StepRecord) -> None:
        if record.dest_reg is None or record.dest_reg == 0:
            return
        self.eligible += 1
        repeated = self.tracker.was_repeated(record)
        if repeated:
            self.repeated_eligible += 1
        value = record.dest_value
        predicted = self.predictor.predict(record.pc)
        if predicted is not None:
            self.attempted += 1
            if predicted == value:
                self.correct += 1
                if repeated:
                    self.correct_on_repeated += 1
        self.predictor.update(record.pc, value)

    def report(self) -> ValuePredictionReport:
        return ValuePredictionReport(
            predictor=self.predictor.name,
            eligible=self.eligible,
            attempted=self.attempted,
            correct=self.correct,
            correct_on_repeated=self.correct_on_repeated,
            repeated_eligible=self.repeated_eligible,
        )
