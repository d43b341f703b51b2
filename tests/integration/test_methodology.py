"""Methodology-level integration tests.

These validate the experimental machinery itself: the paper's
skip-then-measure window, scaling behaviour, trace record/replay
equivalence on a full workload, and determinism of the whole pipeline.
"""

from __future__ import annotations

import pytest

from repro.core import RepetitionTracker
from repro.harness import SuiteConfig, run_workload
from repro.sim import EventTrace, Simulator, TraceRecorder
from repro.workloads import get_workload


class TestSkipWindow:
    """The paper skips initialization before measuring (Section 3)."""

    def test_skip_reduces_analyzed_count(self):
        workload = get_workload("compress")
        data = workload.primary_input(1)
        full = Simulator(workload.program(), input_data=data).run()
        tracker = RepetitionTracker()
        skipped = Simulator(
            workload.program(), input_data=data, analyzers=[tracker]
        ).run(skip=20_000)
        assert skipped.total_instructions == full.total_instructions
        assert skipped.analyzed_instructions == full.total_instructions - 20_000
        assert tracker.dynamic_total == skipped.analyzed_instructions

    def test_skip_excludes_initialization_effects(self):
        """Measured over the steady state only, repetition is still high —
        the paper's argument that windows are representative."""
        workload = get_workload("m88ksim")
        tracker = RepetitionTracker()
        Simulator(
            workload.program(),
            input_data=workload.primary_input(1),
            analyzers=[tracker],
        ).run(skip=30_000)
        assert tracker.dynamic_total > 10_000
        report = tracker.report()
        assert report.dynamic_repeated_pct > 80.0

    def test_harness_skip_config(self):
        config = SuiteConfig(skip_instructions=10_000, limit_instructions=20_000)
        result = run_workload(get_workload("go"), config)
        assert result.run.analyzed_instructions <= 20_000
        assert result.repetition.dynamic_total == result.run.analyzed_instructions


class TestScaling:
    def test_scale_grows_dynamic_count(self):
        small = run_workload(get_workload("li"), SuiteConfig(scale=1))
        large = run_workload(get_workload("li"), SuiteConfig(scale=2))
        assert (
            large.run.analyzed_instructions > 1.5 * small.run.analyzed_instructions
        )

    def test_repetition_stable_across_scale(self):
        """Longer runs must not change the qualitative picture."""
        small = run_workload(get_workload("li"), SuiteConfig(scale=1))
        large = run_workload(get_workload("li"), SuiteConfig(scale=2))
        assert abs(
            small.repetition.dynamic_repeated_pct
            - large.repetition.dynamic_repeated_pct
        ) < 15.0


class TestTraceEquivalence:
    def test_workload_trace_replay_matches_live(self):
        """Record once, replay into a fresh tracker: identical totals."""
        workload = get_workload("compress")
        data = workload.primary_input(1)

        recorder = TraceRecorder()
        live = RepetitionTracker()
        Simulator(
            workload.program(), input_data=data, analyzers=[recorder, live]
        ).run(limit=40_000)

        replayed = RepetitionTracker()
        recorder.trace().replay([replayed])
        assert replayed.dynamic_total == live.dynamic_total
        assert replayed.dynamic_repeated == live.dynamic_repeated
        assert (
            replayed.report().unique_repeatable_instances
            == live.report().unique_repeatable_instances
        )

    def test_trace_serialization_on_workload(self, tmp_path):
        import io

        workload = get_workload("li")
        recorder = TraceRecorder()
        program = workload.program()
        Simulator(
            program, input_data=workload.primary_input(1), analyzers=[recorder]
        ).run(limit=20_000)
        trace = recorder.trace()
        buffer = io.BytesIO()
        trace.save(buffer)
        buffer.seek(0)
        loaded = EventTrace.load(buffer, program)
        a, b = RepetitionTracker(), RepetitionTracker()
        trace.replay([a])
        loaded.replay([b])
        assert a.dynamic_repeated == b.dynamic_repeated


class TestDeterminism:
    def test_full_pipeline_bit_identical(self):
        """Two complete runs of a workload under the full analyzer stack
        produce identical reports (the repo's reproducibility guarantee)."""
        from repro.harness.runner import clear_cache

        config = SuiteConfig(scale=1, limit_instructions=30_000)
        first = run_workload(get_workload("perl"), config)
        clear_cache()
        second = run_workload(get_workload("perl"), config)
        assert first.repetition.dynamic_repeated == second.repetition.dynamic_repeated
        assert first.run.output == second.run.output
        assert (
            first.local_analysis.categories["arguments"].total
            == second.local_analysis.categories["arguments"].total
        )
        assert first.reuse.reuse_hits == second.reuse.reuse_hits
