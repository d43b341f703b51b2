"""The step-compilation contract, checked on real workloads.

The predecoded engine calls each analyzer's ``compile_step`` closures
from the generated per-instruction closures, with positional values and
no step record; trace replay, the reference interpreter and hand-fed
records reach the same closures through the base-class ``on_step``
adapter.  Both routes must give the same reports, and every analyzer
must see every analyzed instruction.
"""

from __future__ import annotations

import dataclasses
import io

import pytest

from repro.core import FunctionAnalyzer, RepetitionTracker
from repro.harness import SuiteConfig, build_analyzers
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import instrument
from repro.sim import Analyzer, Simulator, StepRecord
from repro.sim.simulator import ENGINES, _hooks_for
from repro.sim.trace import EventTrace, TraceRecorder
from repro.workloads import WORKLOAD_ORDER, get_workload

from tests.helpers import make_step

REPLAY_LIMIT = 8_000

#: A small analysis window for the all-workload invariants.
WINDOW = SuiteConfig(skip_instructions=2_000, limit_instructions=3_000)


def _run(name: str, config: SuiteConfig, extra=()):
    workload = get_workload(name)
    analyzers = build_analyzers(config)
    simulator = Simulator(
        workload.program(),
        input_data=config.input_for(workload),
        analyzers=analyzers + list(extra),
        engine=config.engine,
    )
    run = simulator.run(
        limit=config.limit_instructions, skip=config.skip_instructions
    )
    return simulator, run, analyzers


class StepCounter(Analyzer):
    """An uncompiled analyzer: overrides ``on_step`` only."""

    def __init__(self) -> None:
        self.steps = 0

    def on_step(self, record) -> None:
        self.steps += 1


class TestLiveEqualsReplay:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", ["m88ksim", "compress"])
    def test_reports_equal(self, name, engine):
        config = SuiteConfig(engine=engine, limit_instructions=REPLAY_LIMIT)
        recorder = TraceRecorder()
        _, run, live = _run(name, config, extra=[recorder])
        assert run.analyzed_instructions == REPLAY_LIMIT
        # The predecoded engine calls the compiled closures directly; only
        # the interpreter goes through the on_step adapter (and its cache).
        used_adapter = [hasattr(analyzer, "_compiled_steps") for analyzer in live]
        assert used_adapter == [engine == "interpreter"] * len(live)

        replayed = build_analyzers(config)
        recorder.trace().replay(replayed)
        for live_analyzer, replayed_analyzer in zip(live, replayed):
            assert live_analyzer.report() == replayed_analyzer.report(), type(
                live_analyzer
            ).__name__


def _fields(event) -> tuple:
    return (type(event).__name__,) + tuple(
        getattr(event, name) for name in type(event).__slots__
    )


class TestSavedTraceReplay:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", WORKLOAD_ORDER)
    def test_full_stack_replays_from_a_saved_trace(self, name, engine):
        config = dataclasses.replace(WINDOW, engine=engine)
        recorder = TraceRecorder()
        simulator, _, live = _run(name, config, extra=[recorder])
        trace = recorder.trace()
        stream = io.BytesIO()
        trace.save(stream)
        stream.seek(0)
        loaded = EventTrace.load(stream, simulator.program)

        assert [_fields(event) for event in loaded.events] == [
            _fields(event) for event in trace.events
        ]
        replayed = build_analyzers(config)
        loaded.replay(replayed)
        for live_analyzer, replayed_analyzer in zip(live, replayed):
            assert live_analyzer.report() == replayed_analyzer.report(), type(
                live_analyzer
            ).__name__


class TestCrossAnalyzerInvariants:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", WORKLOAD_ORDER)
    def test_every_analyzer_sees_every_step(self, name, engine):
        config = dataclasses.replace(WINDOW, engine=engine)
        _, run, analyzers = _run(name, config)
        repetition, global_, _function, local, reuse, _values, traces = (
            analyzer.report() for analyzer in analyzers
        )
        assert run.analyzed_instructions == WINDOW.limit_instructions
        for report in (repetition, global_, local, reuse, traces):
            assert report.dynamic_total == run.analyzed_instructions, type(report).__name__
        assert global_.dynamic_repeated == repetition.dynamic_repeated
        assert local.dynamic_repeated == repetition.dynamic_repeated
        assert traces.covered_instructions <= traces.dynamic_total

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "name",
        [
            pytest.param(
                name,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="known defect: the reuse buffer enters syscalls, so a "
                    "read_char with the same operands hits although it reads a "
                    "different character (5 such hits in this window); the fix "
                    "changes Table 10 and the benchmark's committed digests",
                ),
            )
            if name == "perl"
            else name
            for name in WORKLOAD_ORDER
        ],
    )
    def test_reuse_hits_within_repetition(self, name, engine):
        config = dataclasses.replace(WINDOW, engine=engine)
        _, _, analyzers = _run(name, config)
        repetition = analyzers[0].report()
        reuse = analyzers[4].report()
        assert reuse.reuse_hits <= repetition.dynamic_repeated


class TestDispatch:
    def test_compile_step_counts_as_step_participation(self):
        tracker = RepetitionTracker()
        assert _hooks_for([tracker], "on_step") == (tracker.on_step,)
        assert _hooks_for([Analyzer()], "on_step") == ()

    def test_none_skips_the_instruction(self):
        analyzer = FunctionAnalyzer()
        alu = make_step(op="addu", rd=8, rs=9, rt=10)
        assert analyzer.compile_step(alu.pc, alu.instr) is None
        analyzer.on_step(alu)  # the adapter tolerates skipped instructions

    @pytest.mark.parametrize("engine", ENGINES)
    def test_records_are_built_only_for_on_step_analyzers(self, engine, monkeypatch):
        built = []
        init = StepRecord.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(StepRecord, "__init__", counting_init)
        config = dataclasses.replace(WINDOW, engine=engine)
        _, run, _ = _run("compress", config)
        compiled_only = len(built)
        built.clear()
        _run("compress", config, extra=[StepCounter()])
        # The interpreter builds one record per analyzed step regardless;
        # the predecoded engine builds none for compiled analyzers.
        expected = run.analyzed_instructions if engine == "interpreter" else 0
        assert compiled_only == expected
        assert len(built) == run.analyzed_instructions

    def test_uncompiled_and_instrumented_analyzers_see_every_step(self):
        config = dataclasses.replace(WINDOW, engine="predecoded")
        plain = StepCounter()
        tracker = RepetitionTracker()
        registry = MetricsRegistry(enabled=True)
        instrument(tracker, registry)
        _, run, _ = _run("compress", config, extra=[plain, tracker])
        assert plain.steps == run.analyzed_instructions
        timer = registry.timer("profile.RepetitionTracker.on_step")
        assert timer.count == run.analyzed_instructions
        assert tracker.dynamic_total == run.analyzed_instructions

    def test_adapter_recompiles_a_new_instruction_at_a_known_pc(self):
        tracker = RepetitionTracker()
        first = make_step(pc=0x0040_0000, op="addu", inputs=(1, 2), outputs=(3,))
        second = make_step(pc=0x0040_0000, op="subu", inputs=(1, 2), outputs=(3,))
        tracker.on_step(first)
        tracker.on_step(second)
        # Same pc, same instance: the entry is per pc, as before.
        assert tracker.executed_count(0x0040_0000) == 2
        assert tracker.repeated_count(0x0040_0000) == 1
