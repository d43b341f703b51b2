"""Tests for trace recording, replay, and serialization."""

from __future__ import annotations

import io
import os
import subprocess
import sys

import pytest

from repro.core import FunctionAnalyzer, RepetitionTracker
from repro.lang import compile_source
from repro.sim import EventTrace, Simulator, TraceRecorder
from repro.sim.events import CallEvent, ReturnEvent, StepRecord, SyscallEvent

from tests.helpers import child_env

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


def saved(trace):
    buffer = io.BytesIO()
    trace.save(buffer)
    return buffer.getvalue()


def cut_inside(trace, kind):
    """``trace`` saved and cut 3 bytes into its first event of type ``kind``."""
    first = next(i for i, e in enumerate(trace.events) if isinstance(e, kind))
    prefix = saved(EventTrace(trace.program, trace.events[:first]))
    return saved(trace)[: len(prefix) + 3]


# Records SOURCE (argv[2]) and saves the trace to argv[1].
SAVE_IN_CHILD = """
import sys
from repro.lang import compile_source
from repro.sim import Simulator, TraceRecorder
recorder = TraceRecorder()
Simulator(compile_source(sys.argv[2]), analyzers=[recorder]).run()
with open(sys.argv[1], "wb") as handle:
    recorder.trace().save(handle)
"""


class TestRecording:
    def test_records_all_steps(self):
        trace, _, result = record()
        assert trace.step_count == result.analyzed_instructions

    def test_records_structural_events(self):
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

    @pytest.mark.parametrize(
        "cut, where",
        [
            pytest.param(lambda trace: b"RTRC", "header", id="magic-only"),
            pytest.param(lambda trace: saved(trace)[:9], "header", id="header"),
            pytest.param(lambda trace: cut_inside(trace, StepRecord), "step", id="step"),
            pytest.param(lambda trace: cut_inside(trace, CallEvent), "call event", id="call"),
            pytest.param(lambda trace: saved(trace)[: len(saved(trace)) // 2], "", id="half"),
        ],
    )
    def test_truncated_trace_rejected(self, cut, where):
        trace, program, _ = record()
        with pytest.raises(ValueError, match=f"corrupt trace: truncated {where}"):
            EventTrace.load(io.BytesIO(cut(trace)), program)

    def test_trace_saved_by_another_process_loads(self, tmp_path):
        """``str`` hashes are salted per process; the program check must not be."""
        path = tmp_path / "run.trc"
        env = child_env(
            PYTHONHASHSEED="2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        )
        subprocess.run(
            [sys.executable, "-c", SAVE_IN_CHILD, str(path), SOURCE], env=env, check=True
        )
        trace, program, _ = record()
        with open(path, "rb") as handle:
            loaded = EventTrace.load(handle, program)
        assert saved(loaded) == saved(trace)

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
        syscalls = [e for e in loaded.events if isinstance(e, SyscallEvent)]
        inputs = [e for e in syscalls if e.is_input]
        assert [e.result for e in inputs] == [40, 2]
