"""Tests for in-memory trace recording and replay."""

from __future__ import annotations

import pytest

from repro.core import FunctionAnalyzer, RepetitionTracker
from repro.lang import compile_source
from repro.sim import Analyzer, Simulator, TraceRecorder
from repro.sim.events import CallEvent, ReturnEvent, SyscallEvent

SOURCE = """
int table[4] = {2, 4, 6, 8};

int pick(int i) { return table[i & 3]; }

int main() {
    int i; int s = 0;
    for (i = 0; i < 25; i += 1) { s += pick(i); }
    print_int(s);
    return 0;
}
"""


def record(source=SOURCE, input_data=b""):
    program = compile_source(source)
    recorder = TraceRecorder()
    result = Simulator(program, input_data=input_data, analyzers=[recorder]).run()
    return recorder.trace(), program, result


class TestRecording:
    def test_records_all_steps(self):
        trace, _, result = record()
        assert trace.step_count == result.analyzed_instructions

    def test_records_structural_events(self):
        trace, _, _ = record()
        kinds = {type(e) for e in trace.events}
        assert CallEvent in kinds and ReturnEvent in kinds and SyscallEvent in kinds

    def test_records_input_syscall_results(self):
        source = """
int main() {
    int a = read_int();
    int b = read_int();
    print_int(a + b);
    return 0;
}
"""
        trace, _, _ = record(source, b"40 2")
        inputs = [e for e in trace.events if isinstance(e, SyscallEvent) and e.is_input]
        assert [e.result for e in inputs] == [40, 2]

    def test_unattached_recorder_rejects_trace(self):
        with pytest.raises(RuntimeError):
            TraceRecorder().trace()


class TestReplay:
    def test_replay_matches_live_analysis(self):
        trace, program, _ = record()
        live = RepetitionTracker()
        Simulator(compile_source(SOURCE), analyzers=[live]).run()

        replayed = RepetitionTracker()
        trace.replay([replayed])

        assert replayed.dynamic_total == live.dynamic_total
        assert replayed.dynamic_repeated == live.dynamic_repeated
        assert replayed.report().unique_repeatable_instances == (
            live.report().unique_repeatable_instances
        )

    def test_replay_function_analysis(self):
        trace, _, _ = record()
        analyzer = FunctionAnalyzer()
        trace.replay([analyzer])
        report = analyzer.report()
        assert report.per_function["pick"].calls == 25

    def test_replay_into_an_analyzer_without_step_work(self):
        class CallCounter(Analyzer):
            calls = 0

            def on_call(self, event):
                self.calls += 1

        trace, _, _ = record()
        counter = CallCounter()
        trace.replay([counter])  # every step reaches the base on_step adapter
        assert counter.calls == 26  # main's entry and the 25 calls to pick

    def test_replay_is_repeatable(self):
        trace, _, _ = record()
        first = RepetitionTracker()
        second = RepetitionTracker()
        trace.replay([first])
        trace.replay([second])
        assert first.dynamic_repeated == second.dynamic_repeated
