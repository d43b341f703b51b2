"""Tests for trace recording, replay, and serialization."""

from __future__ import annotations

import io

import pytest

from repro.core import FunctionAnalyzer, RepetitionTracker
from repro.lang import compile_source
from repro.sim import EventTrace, Simulator, TraceRecorder

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
        from repro.sim.events import CallEvent, ReturnEvent, SyscallEvent

        trace, _, _ = record()
        kinds = {type(e) for e in trace.events}
        assert CallEvent in kinds and ReturnEvent in kinds and SyscallEvent in kinds

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

    def test_replay_is_repeatable(self):
        trace, _, _ = record()
        first = RepetitionTracker()
        second = RepetitionTracker()
        trace.replay([first])
        trace.replay([second])
        assert first.dynamic_repeated == second.dynamic_repeated


class TestSerialization:
    def test_save_load_roundtrip(self):
        trace, program, _ = record()
        buffer = io.BytesIO()
        trace.save(buffer)
        buffer.seek(0)
        loaded = EventTrace.load(buffer, program)
        assert len(loaded) == len(trace)

        original = RepetitionTracker()
        recovered = RepetitionTracker()
        trace.replay([original])
        loaded.replay([recovered])
        assert original.dynamic_repeated == recovered.dynamic_repeated
        assert original.dynamic_total == recovered.dynamic_total

    def test_roundtrip_preserves_step_fields(self):
        trace, program, _ = record()
        buffer = io.BytesIO()
        trace.save(buffer)
        buffer.seek(0)
        loaded = EventTrace.load(buffer, program)
        from repro.sim.events import StepRecord

        original_steps = [e for e in trace.events if isinstance(e, StepRecord)]
        loaded_steps = [e for e in loaded.events if isinstance(e, StepRecord)]
        for a, b in zip(original_steps, loaded_steps):
            assert (a.pc, a.inputs, a.outputs, a.dest_reg, a.mem_addr) == (
                b.pc,
                b.inputs,
                b.outputs,
                b.dest_reg,
                b.mem_addr,
            )

    def test_wrong_program_rejected(self):
        trace, _, _ = record()
        other = compile_source("int main() { return 0; }")
        buffer = io.BytesIO()
        trace.save(buffer)
        buffer.seek(0)
        with pytest.raises(ValueError, match="different program"):
            EventTrace.load(buffer, other)

    def test_bad_magic_rejected(self):
        _, program, _ = record()
        with pytest.raises(ValueError, match="not a trace"):
            EventTrace.load(io.BytesIO(b"JUNKJUNKJUNKJUNK"), program)

    def test_trace_with_input_syscalls(self):
        source = """
int main() {
    int a = read_int();
    int b = read_int();
    print_int(a + b);
    return 0;
}
"""
        program = compile_source(source)
        recorder = TraceRecorder()
        Simulator(program, input_data=b"40 2", analyzers=[recorder]).run()
        trace = recorder.trace()
        buffer = io.BytesIO()
        trace.save(buffer)
        buffer.seek(0)
        loaded = EventTrace.load(buffer, program)
        from repro.sim.events import SyscallEvent

        syscalls = [e for e in loaded.events if isinstance(e, SyscallEvent)]
        inputs = [e for e in syscalls if e.is_input]
        assert [e.result for e in inputs] == [40, 2]
