"""Cross-analyzer property tests on synthetic deterministic streams.

Hypothesis generates deterministic instruction streams (outputs are a
function of (pc, inputs), as on real hardware) and checks the invariants
that tie the analyses together:

* reuse hits never exceed tracked repetition (a reuse hit implies the
  instance matches a previously executed one);
* per-category splits always sum to the totals;
* a bigger repetition buffer never reports less repetition.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GlobalLoadValueProfiler,
    RepetitionTracker,
    ReuseBuffer,
)

from tests.helpers import make_step

BASE = 0x0040_0000


def _stream(spec):
    """Build deterministic StepRecords from (pc_index, input_value) pairs."""
    steps = []
    for index, (pc_index, value) in enumerate(spec, start=1):
        pc = BASE + 4 * pc_index
        # Deterministic "semantics": output is a pure function of inputs.
        output = (value * 2654435761 + pc_index) & 0xFFFFFFFF
        steps.append(
            make_step(
                pc=pc,
                op="addu",
                inputs=(value,),
                outputs=(output,),
                dest_reg=8,
                dest_value=output,
                index=index,
            )
        )
    return steps


stream_specs = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 9)), min_size=0, max_size=120
)


class TestReuseVsRepetition:
    @settings(max_examples=60, deadline=None)
    @given(stream_specs)
    def test_reuse_hits_bounded_by_repetition(self, spec):
        tracker = RepetitionTracker()
        buffer = ReuseBuffer(entries=64, associativity=4)
        for step in _stream(spec):
            tracker.on_step(step)
            buffer.on_step(step)
        assert buffer.reuse_hits <= tracker.dynamic_repeated

    @settings(max_examples=60, deadline=None)
    @given(stream_specs)
    def test_huge_buffer_captures_all_repetition(self, spec):
        """With capacity >> working set and no stores, reuse == repetition."""
        tracker = RepetitionTracker()
        buffer = ReuseBuffer(entries=4096, associativity=4096)
        for step in _stream(spec):
            tracker.on_step(step)
            buffer.on_step(step)
        assert buffer.reuse_hits == tracker.dynamic_repeated


class TestBufferMonotonicity:
    @settings(max_examples=40, deadline=None)
    @given(stream_specs)
    def test_larger_instance_buffer_never_hides_repetition(self, spec):
        small = RepetitionTracker(buffer_capacity=2)
        large = RepetitionTracker(buffer_capacity=64)
        for step in _stream(spec):
            small.on_step(step)
            large.on_step(step)
        assert small.dynamic_repeated <= large.dynamic_repeated

    @settings(max_examples=40, deadline=None)
    @given(stream_specs)
    def test_report_consistency(self, spec):
        tracker = RepetitionTracker()
        for step in _stream(spec):
            tracker.on_step(step)
        report = tracker.report()
        assert report.dynamic_repeated == sum(report.instance_repeat_counts)
        assert report.dynamic_repeated == sum(report.static_repeat_weights)
        assert report.static_repeated <= report.static_executed
        assert sum(report.bucket_weights.values()) == report.dynamic_repeated


class TestValueProfilerBounds:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5)), max_size=80))
    def test_coverage_bounded_and_monotone(self, spec):
        profiler = GlobalLoadValueProfiler()
        for pc_index, value in spec:
            profiler.on_step(
                make_step(
                    pc=BASE + 4 * pc_index,
                    op="lw",
                    inputs=(0x1000_0000,),
                    outputs=(value,),
                    dest_reg=8,
                    dest_value=value,
                    mem_addr=0x1000_0000 + 4 * pc_index,
                )
            )
        report = profiler.report()
        coverage = list(report.top_k_coverage)
        assert coverage == sorted(coverage)
        assert all(0.0 <= c <= 100.0 for c in coverage)
        assert report.loads_profiled == len(spec)
