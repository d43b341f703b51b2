"""Tests for the value predictors and their evaluation analyzer."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.value_prediction import (
    ContextPredictor,
    HybridPredictor,
    LastValuePredictor,
    StridePredictor,
    ValuePredictionAnalyzer,
)
from repro.core.repetition import RepetitionTracker
from repro.lang import compile_source
from repro.sim import Simulator

from tests.helpers import make_step

PC = 0x0040_0000


def train(predictor, values, pc=PC):
    for value in values:
        predictor.update(pc, value)


class TestLastValuePredictor:
    def test_cold_table_abstains(self):
        assert LastValuePredictor().predict(PC) is None

    def test_needs_confidence(self):
        predictor = LastValuePredictor(threshold=2)
        train(predictor, [7])
        assert predictor.predict(PC) is None
        train(predictor, [7])
        assert predictor.predict(PC) == 7

    def test_constant_sequence_predicted(self):
        predictor = LastValuePredictor()
        train(predictor, [5, 5, 5])
        assert predictor.predict(PC) == 5

    def test_changing_values_lose_confidence(self):
        predictor = LastValuePredictor(threshold=2)
        train(predictor, [1, 1, 1])  # confident
        train(predictor, [2, 3, 4])  # confidence decays
        assert predictor.predict(PC) is None

    def test_distinct_pcs_independent(self):
        predictor = LastValuePredictor()
        train(predictor, [1, 1, 1], pc=PC)
        assert predictor.predict(PC + 4) is None


class TestStridePredictor:
    def test_arithmetic_sequence(self):
        predictor = StridePredictor()
        train(predictor, [10, 13, 16, 19])
        assert predictor.predict(PC) == 22

    def test_zero_stride_is_last_value(self):
        predictor = StridePredictor()
        train(predictor, [4, 4, 4])
        assert predictor.predict(PC) == 4

    def test_wraps_32_bits(self):
        predictor = StridePredictor()
        top = 0xFFFFFFFE
        train(predictor, [top - 3, top - 2, top - 1, top])
        assert predictor.predict(PC) == 0xFFFFFFFF

    def test_negative_stride(self):
        predictor = StridePredictor()
        train(predictor, [100, 90, 80, 70])
        assert predictor.predict(PC) == 60

    def test_stride_change_relearned(self):
        predictor = StridePredictor(threshold=1)
        train(predictor, [0, 2, 4, 6])
        train(predictor, [10, 15, 20, 25])
        assert predictor.predict(PC) == 30


class TestContextPredictor:
    def test_repeating_pattern_learned(self):
        predictor = ContextPredictor(order=2, threshold=1)
        # Pattern 1,2,3 repeating: after (2,3) comes 1, etc.
        train(predictor, [1, 2, 3] * 4)
        # History is now (2, 3); next should be 1.
        assert predictor.predict(PC) == 1

    def test_insufficient_history_abstains(self):
        predictor = ContextPredictor(order=3)
        train(predictor, [1, 2])
        assert predictor.predict(PC) is None

    def test_alternating_values(self):
        predictor = ContextPredictor(order=1, threshold=1)
        train(predictor, [7, 9, 7, 9, 7])
        assert predictor.predict(PC) == 9  # after a 7 comes a 9

    def test_stride_sequence_not_predicted(self):
        """Unlike the stride predictor, FCM cannot extrapolate a fresh
        arithmetic sequence (each context is new)."""
        predictor = ContextPredictor(order=2, threshold=1)
        train(predictor, [10, 20, 30, 40])
        assert predictor.predict(PC) != 50


class TestHybridPredictor:
    def test_uses_stride_when_context_cold(self):
        predictor = HybridPredictor()
        train(predictor, [5, 10, 15, 20])
        assert predictor.predict(PC) == 25

    def test_pattern_beats_stride_on_cycles(self):
        predictor = HybridPredictor(order=2)
        train(predictor, [1, 2, 3] * 6)
        assert predictor.predict(PC) == 1

    def test_chooser_follows_the_component_that_was_right(self):
        class Fixed:
            def __init__(self, value):
                self.value = value

            def predict(self, pc):
                return self.value

            def update(self, pc, value):
                pass

        predictor = HybridPredictor()
        predictor.context, predictor.stride = Fixed(1), Fixed(2)
        assert predictor.predict(PC) == 1  # the chooser starts on context
        predictor.update(PC, 2)  # only stride was right
        assert predictor.predict(PC) == 2
        predictor.update(PC, 3)  # both wrong: the chooser stays
        assert predictor.predict(PC) == 2
        predictor.update(PC, 1)  # only context was right
        assert predictor.predict(PC) == 1
        predictor.context = Fixed(None)
        assert predictor.predict(PC) == 2  # one component silent: the other

    @given(st.lists(st.integers(0, 2**32 - 1), min_size=0, max_size=40))
    def test_never_crashes(self, values):
        predictor = HybridPredictor()
        for value in values:
            prediction = predictor.predict(PC)
            assert prediction is None or 0 <= prediction < 2**32
            predictor.update(PC, value)


class TestAnalyzer:
    def _alu(self, value, pc=PC):
        return make_step(
            pc=pc, op="addu", inputs=(value, 0), outputs=(value,),
            dest_reg=8, dest_value=value,
        )

    @staticmethod
    def _feed(tracker, analyzer, step):
        tracker.on_step(step)
        analyzer.on_step(step)

    def test_eligibility(self):
        tracker = RepetitionTracker()
        analyzer = ValuePredictionAnalyzer(LastValuePredictor(), tracker)
        self._feed(tracker, analyzer, self._alu(5))
        no_dest = make_step(op="beq", inputs=(1, 1), outputs=(1,))
        self._feed(tracker, analyzer, no_dest)
        assert analyzer.eligible == 1

    def test_accuracy_counting(self):
        tracker = RepetitionTracker()
        analyzer = ValuePredictionAnalyzer(LastValuePredictor(threshold=1), tracker)
        for _ in range(5):
            self._feed(tracker, analyzer, self._alu(9))
        report = analyzer.report()
        assert report.eligible == 5
        assert report.correct >= 3
        assert report.accuracy_pct == 100.0

    def test_repeated_split_with_tracker(self):
        tracker = RepetitionTracker()
        analyzer = ValuePredictionAnalyzer(LastValuePredictor(threshold=1), tracker)
        for _ in range(4):
            self._feed(tracker, analyzer, self._alu(7))
        report = analyzer.report()
        assert report.repeated_eligible == 3
        assert report.correct_on_repeated >= 2
        assert 0.0 <= report.repeated_capture_pct <= 100.0

    def test_end_to_end_on_minic(self):
        source = """
int main() {
    int i; int s = 0;
    for (i = 0; i < 100; i += 1) { s += 3; }
    print_int(s);
    return 0;
}
"""
        tracker = RepetitionTracker()
        analyzer = ValuePredictionAnalyzer(StridePredictor(), tracker)
        Simulator(compile_source(source), analyzers=[tracker, analyzer]).run()
        report = analyzer.report()
        # The loop's counter and accumulator are perfectly stride-
        # predictable; overall accuracy must be high.
        assert report.coverage_pct > 50.0
        assert report.accuracy_pct > 80.0

    def test_report_zero_division_safety(self):
        report = ValuePredictionAnalyzer(LastValuePredictor(), RepetitionTracker()).report()
        assert report.coverage_pct == 0.0
        assert report.accuracy_pct == 0.0
        assert report.correct_of_all_pct == 0.0
        assert report.repeated_capture_pct == 0.0
