"""Span tracer tests: nesting, exception safety, Chrome trace format."""

from __future__ import annotations

import json

import pytest

from repro.asm import assemble
from repro.obs import tracing as obs_tracing
from repro.obs.tracing import SpanTracer
from repro.sim import Simulator


def _begins(tracer):
    return [e for e in tracer.events if e["ph"] == "B"]


def _ends(tracer):
    return [e for e in tracer.events if e["ph"] == "E"]


class TestSpans:
    def test_nested_spans_emit_matched_pairs(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        assert [e["name"] for e in tracer.events] == [
            "outer", "inner", "inner", "inner", "inner", "outer",
        ]
        assert tracer.span_count("inner") == 2
        assert len(_begins(tracer)) == len(_ends(tracer)) == 3

    def test_span_closes_on_exception(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        assert len(_begins(tracer)) == len(_ends(tracer)) == 2
        assert tracer.events[-1]["name"] == "outer"

    def test_span_args_recorded_on_begin(self):
        tracer = SpanTracer()
        with tracer.span("simulate", workload="compress"):
            pass
        assert _begins(tracer)[0]["args"] == {"workload": "compress"}

    def test_durations_attribute_nested_time_to_both(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        durations = tracer.durations()
        assert set(durations) == {"outer", "inner"}
        assert durations["outer"] >= durations["inner"] >= 0.0

    def test_extend_splices_foreign_events(self):
        parent, worker = SpanTracer(), SpanTracer()
        with worker.span("simulate"):
            pass
        parent.extend(worker.events)
        assert parent.span_count("simulate") == 1


class TestChromeTraceFormat:
    def _trace(self):
        tracer = SpanTracer()
        with tracer.span("assemble"):
            pass
        with tracer.span("simulate", engine="predecoded"):
            with tracer.span("warmup"):
                pass
        return tracer

    def test_trace_is_valid_json_with_trace_events(self, tmp_path):
        tracer = self._trace()
        path = tmp_path / "trace.json"
        tracer.write(str(path))
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        assert loaded["traceEvents"] == tracer.events

    def test_events_have_required_chrome_fields(self):
        for event in self._trace().events:
            assert event["ph"] in ("B", "E")
            assert isinstance(event["ts"], int)
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert isinstance(event["name"], str)

    def test_timestamps_are_monotonic(self):
        stamps = [e["ts"] for e in self._trace().events]
        assert stamps == sorted(stamps)

    def test_begin_end_pairs_balance_per_name(self):
        tracer = self._trace()
        for name in ("assemble", "simulate", "warmup"):
            begins = [e for e in tracer.events if e["ph"] == "B" and e["name"] == name]
            ends = [e for e in tracer.events if e["ph"] == "E" and e["name"] == name]
            assert len(begins) == len(ends) >= 1


class TestSimulatorSpans:
    def test_bare_run_with_warmup(self, tracer):
        program = assemble(
            ".ent main, 0\nmain: li $t0, 5\nloop: addiu $t0, $t0, -1\n"
            "bgtz $t0, loop\njr $ra\n.end main"
        )
        result = Simulator(program).run(skip=3)
        assert result.analyzed_instructions == result.total_instructions - 3
        names = [event["name"] for event in tracer.events if event["ph"] == "B"]
        assert names == ["warmup", "simulate"]


class TestGlobalSlot:
    def test_module_span_is_noop_without_tracer(self):
        assert obs_tracing.current_tracer() is None
        with obs_tracing.span("anything"):
            pass  # must not raise, must not record anywhere

    def test_module_span_records_when_installed(self, tracer):
        with obs_tracing.span("phase", workload="go"):
            pass
        assert tracer.span_count("phase") == 1

    def test_install_and_uninstall(self):
        instance = SpanTracer()
        previous = obs_tracing.current_tracer()
        obs_tracing.install_tracer(instance)
        try:
            assert obs_tracing.current_tracer() is instance
        finally:
            obs_tracing.install_tracer(previous)
        assert obs_tracing.current_tracer() is previous
