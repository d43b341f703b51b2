"""In-place analyzer profiling tests.

The critical property is path preservation: the simulator decides per
hook whether an analyzer participates by inspecting its *type*
(``_hooks_for``, ``takes_steps``), so :func:`instrument` replaces hooks
on the instance only, and only the hooks the class overrides.
"""

from __future__ import annotations

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import (
    HOOKS,
    format_profile_table,
    instrument,
    profiles_from_snapshot,
)
from repro.sim.observer import Analyzer, step_compiler
from repro.sim.simulator import _hooks_for

from tests.helpers import make_step


class StepOnly(Analyzer):
    def __init__(self):
        self.steps = 0

    def on_step(self, record):
        self.steps += 1


class CallsOnly(Analyzer):
    def __init__(self):
        self.calls = 0

    def on_call(self, event):
        self.calls += 1


class Compiled(Analyzer):
    """Compiles a step for ``addu`` only."""

    def __init__(self):
        self.steps = 0

    def compile_step(self, pc, instr):
        if instr.op.name != "addu":
            return None

        def step(n, inputs, outputs, value, address):
            self.steps += 1

        return step


class Failing(Analyzer):
    def on_step(self, record):
        raise ValueError("analyzer exploded")


def _instrumented(analyzer):
    registry = MetricsRegistry(enabled=True)
    instrument(analyzer, registry)
    return analyzer, registry


def _timer(registry, name):
    return registry.snapshot()["timers"][name]


class TestPathPreservation:
    @pytest.mark.parametrize("cls", [StepOnly, CallsOnly, Compiled, Analyzer])
    def test_hooks_for_participation_unchanged(self, cls):
        analyzer, _ = _instrumented(cls())
        assert type(analyzer) is cls
        for hook in HOOKS:
            assert bool(_hooks_for([analyzer], hook)) == bool(_hooks_for([cls()], hook))

    def test_only_overridden_hooks_are_wrapped(self):
        analyzer, registry = _instrumented(CallsOnly())
        assert set(vars(analyzer)) == {"calls", "on_call"}
        assert set(registry.snapshot()["timers"]) == {"profile.CallsOnly.on_call"}

    def test_on_step_analyzer_keeps_its_compile_step(self):
        analyzer, _ = _instrumented(StepOnly())
        assert set(vars(analyzer)) == {"steps", "on_step"}

    def test_compiled_analyzer_wraps_compile_step_not_on_step(self):
        analyzer, registry = _instrumented(Compiled())
        assert set(vars(analyzer)) == {"steps", "compile_step"}
        # The timer exists before any step runs, so a 0 row is reported.
        assert _timer(registry, "profile.Compiled.on_step")["count"] == 0

    def test_plain_analyzer_gets_no_timers(self):
        analyzer, registry = _instrumented(Analyzer())
        assert vars(analyzer) == {}
        assert registry.snapshot()["timers"] == {}


class TestTiming:
    def test_calls_forward_and_are_counted(self):
        analyzer, registry = _instrumented(StepOnly())
        for _ in range(5):
            analyzer.on_step(object())
        assert analyzer.steps == 5
        stats = _timer(registry, "profile.StepOnly.on_step")
        assert stats["count"] == 5 and stats["total"] >= 0.0

    def test_exception_propagates_but_is_still_timed(self):
        analyzer, registry = _instrumented(Failing())
        with pytest.raises(ValueError):
            analyzer.on_step(object())
        assert _timer(registry, "profile.Failing.on_step")["count"] == 1

    def test_compiled_steps_count_under_on_step(self):
        analyzer, registry = _instrumented(Compiled())
        addu = make_step(op="addu", rd=8, rs=9, rt=10)
        subu = make_step(op="subu", rd=8, rs=9, rt=10)
        compile_step = step_compiler(analyzer)
        assert compile_step(subu.pc, subu.instr) is None
        step = compile_step(addu.pc, addu.instr)
        for n in range(3):
            step(n, addu.inputs, addu.outputs, addu.dest_value, None)
        assert analyzer.steps == 3
        assert _timer(registry, "profile.Compiled.on_step")["count"] == 3

    def test_on_step_adapter_reaches_the_timed_steps(self):
        analyzer, registry = _instrumented(Compiled())
        analyzer.on_step(make_step(op="addu", rd=8, rs=9, rt=10))
        analyzer.on_step(make_step(op="subu", rd=8, rs=9, rt=10))
        assert analyzer.steps == 1
        assert _timer(registry, "profile.Compiled.on_step")["count"] == 1

    def test_each_analyzer_of_a_stack_gets_its_own_timers(self):
        registry = MetricsRegistry(enabled=True)
        for analyzer in (StepOnly(), CallsOnly()):
            instrument(analyzer, registry)
        profiles = profiles_from_snapshot(registry.snapshot())
        assert sorted(p.name for p in profiles) == ["CallsOnly", "StepOnly"]


class TestSnapshotRoundTrip:
    def test_rebuild_from_snapshot(self):
        analyzer, registry = _instrumented(StepOnly())
        for _ in range(3):
            analyzer.on_step(object())
        rebuilt = profiles_from_snapshot(registry.snapshot())
        assert len(rebuilt) == 1
        assert rebuilt[0].name == "StepOnly"
        assert rebuilt[0].calls == {"on_step": 3}
        stats = _timer(registry, "profile.StepOnly.on_step")
        assert rebuilt[0].total_seconds == pytest.approx(stats["total"])

    def test_non_profile_timers_are_ignored(self):
        registry = MetricsRegistry(enabled=True)
        registry.observe("suite.workload_seconds", 1.0)
        assert profiles_from_snapshot(registry.snapshot()) == []


class TestTable:
    def test_table_renders_phases_and_totals(self):
        analyzer, registry = _instrumented(StepOnly())
        analyzer.on_step(object())
        profiles = profiles_from_snapshot(registry.snapshot())
        text = format_profile_table(profiles, {"simulate": 1.25})
        assert "simulate" in text
        assert "StepOnly" in text
        assert "TOTAL" in text
