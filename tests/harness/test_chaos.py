"""Chaos matrix: injected faults across serial/parallel and both engines.

Every recovery path in the harness is proven here against the
deterministic fault-injection sites of :mod:`repro.harness.faults`:
worker crashes, hangs, engine traps, assembly errors, cache rot, and
watchdog timeouts.  The core invariant throughout: whatever happens to
the faulted workload, the *surviving* results are bit-identical
(via :func:`result_digest`) to a fault-free run.
"""

from __future__ import annotations

import dataclasses
import os
import time

import pytest

from repro.asm.errors import AsmError
from repro.harness import faults, runner
from repro.harness.failures import (
    KIND_COMPILE,
    KIND_SIM_TRAP,
    KIND_TIMEOUT,
    KIND_WORKER_CRASH,
    RecoveryPolicy,
    SuiteReport,
    WorkloadTimeout,
    result_digest,
)
from repro.harness.runner import SuiteConfig, run_suite, set_cache_dir
from repro.obs import metrics as obs_metrics
from repro.sim.errors import SimError
from repro.workloads import get_workload

#: Small windows keep the matrix fast; the analyzers all still run.
_CHAOS = SuiteConfig(limit_instructions=3_000)
_INTERP = dataclasses.replace(_CHAOS, engine="interpreter")
_NAMES = ("go", "compress")


def _plan(spec: str, **overrides) -> SuiteConfig:
    return dataclasses.replace(_CHAOS, fault_plan=spec, **overrides)


@pytest.fixture(autouse=True)
def isolated_state():
    """Fresh memory cache, no disk cache, no armed plan, per test."""
    saved = dict(runner._CACHE)
    runner._CACHE.clear()
    previous_dir = runner.cache_directory()
    set_cache_dir(None)
    faults.install_plan(None)
    try:
        yield
    finally:
        faults.install_plan(None)
        set_cache_dir(previous_dir)
        runner._CACHE.clear()
        runner._CACHE.update(saved)


@pytest.fixture(scope="module")
def baselines():
    """Fault-free digests: both workloads (predecoded) + go (interpreter)."""
    saved = dict(runner._CACHE)
    runner._CACHE.clear()
    try:
        clean = run_suite(_CHAOS, names=_NAMES)
        interp = run_suite(_INTERP, names=("go",))
        yield (
            {name: result_digest(result) for name, result in clean.items()},
            result_digest(interp["go"]),
        )
    finally:
        runner._CACHE.clear()
        runner._CACHE.update(saved)


class TestWorkerCrash:
    def test_partial_results_with_terminal_crash(self, baselines, metrics_enabled):
        """Acceptance: crasher fails with attempts == retries + 1, the
        survivors are bit-identical to a fault-free run."""
        clean_digests, _ = baselines
        report = run_suite(
            _plan("worker.crash:go"),
            names=_NAMES,
            jobs=2,
            strict=False,
            retries=1,
        )
        assert isinstance(report, SuiteReport) and report.partial
        record = report.failures["go"]
        assert record.kind == KIND_WORKER_CRASH
        assert record.attempts == 1 + 1  # retries + 1
        assert "go" not in report
        assert result_digest(report["compress"]) == clean_digests["compress"]
        assert metrics_enabled.value("suite.partial_failures") == 1
        assert metrics_enabled.value("retry.attempts") >= 1

    def test_first_attempt_crash_recovers(self, baselines, metrics_enabled):
        clean_digests, _ = baselines
        report = run_suite(
            _plan("worker.crash:go@1"), names=_NAMES, jobs=2, strict=False
        )
        assert report.ok
        assert result_digest(report["go"]) == clean_digests["go"]
        assert result_digest(report["compress"]) == clean_digests["compress"]
        assert report["go"].manifest.attempts >= 2
        assert report["go"].manifest.failures  # the crash is on record
        assert metrics_enabled.value("retry.attempts") >= 1
        assert metrics_enabled.value("suite.partial_failures") == 0

    def test_crash_costs_its_siblings_nothing(self, baselines):
        clean_digests, _ = baselines
        report = run_suite(
            _plan("worker.crash:go"), names=_NAMES, jobs=2, strict=False, retries=0
        )
        assert set(report.failures) == {"go"}
        assert [record.workload for record in report.history] == ["go"]
        assert result_digest(report["compress"]) == clean_digests["compress"]
        assert report["compress"].manifest.attempts == 1

    def test_retried_crash_charges_only_the_crasher(self, metrics_enabled):
        report = run_suite(
            _plan("worker.crash:go@1"), names=_NAMES, jobs=2, strict=False
        )
        assert report.ok
        assert [record.workload for record in report.history] == ["go"]
        assert report["compress"].manifest.attempts == 1
        assert not report["compress"].manifest.failures
        assert metrics_enabled.value("retry.attempts") == 1

    def test_recovered_telemetry_matches_serial(self, metrics_enabled):
        """Aggregated sim counters equal a clean serial run: the crashed
        attempt dies before simulating, so it pollutes nothing."""
        report = run_suite(
            _plan("worker.crash:go@1"), names=_NAMES, jobs=2, strict=False
        )
        assert report.ok
        chaos_sim = {
            k: v
            for k, v in metrics_enabled.snapshot()["counters"].items()
            if k.startswith("sim.")
        }
        metrics_enabled.reset()
        runner._CACHE.clear()
        serial = run_suite(_CHAOS, names=_NAMES)
        assert serial.ok
        clean_sim = {
            k: v
            for k, v in metrics_enabled.snapshot()["counters"].items()
            if k.startswith("sim.")
        }
        assert chaos_sim == clean_sim


class TestEngineDegradation:
    def test_serial_predecode_trap_degrades_to_interpreter(
        self, baselines, metrics_enabled
    ):
        """Acceptance: the fallback result is identical to a native
        interpreter run, flagged degraded, and the predecode cache key
        is never populated."""
        _, interp_digest = baselines
        config = _plan("engine.predecode_raise:go")
        report = run_suite(config, names=("go",), strict=False)
        assert report.ok
        manifest = report["go"].manifest
        assert manifest.degraded and manifest.degraded_from == "predecoded"
        assert manifest.engine == "interpreter"
        assert manifest.attempts == 2
        assert result_digest(report["go"]) == interp_digest
        assert metrics_enabled.value("degrade.engine_fallback") == 1
        assert metrics_enabled.value("fault.injected.engine.predecode_raise") == 1
        # Never promoted as a clean predecode entry.
        assert runner.cached_result(get_workload("go"), config) is None

    def test_parallel_predecode_trap_degrades(self, baselines, metrics_enabled):
        _, interp_digest = baselines
        report = run_suite(
            _plan("engine.predecode_raise:go"), names=_NAMES, jobs=2, strict=False
        )
        assert report.ok
        assert report["go"].manifest.degraded
        assert result_digest(report["go"]) == interp_digest
        assert metrics_enabled.value("degrade.engine_fallback") == 1

    def test_interpreter_trap_is_terminal(self, baselines):
        """No engine left to degrade to: sim-trap on the reference
        engine fails without burning retries."""
        clean_digests, _ = baselines
        report = run_suite(
            _plan("engine.interp_raise:go", engine="interpreter"),
            names=_NAMES,
            jobs=1,
            strict=False,
        )
        assert report.failures["go"].kind == KIND_SIM_TRAP
        assert report.failures["go"].attempts == 1
        assert result_digest(report["compress"]) == clean_digests["compress"]

    def test_strict_raises_the_trap(self):
        with pytest.raises(SimError, match="engine.predecode_raise"):
            run_suite(_plan("engine.predecode_raise:go"), names=("go",))


class TestAsmError:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("engine", ["predecoded", "interpreter"])
    def test_compile_error_is_terminal_everywhere(
        self, jobs, engine, metrics_enabled
    ):
        report = run_suite(
            _plan("asm.error:go", engine=engine),
            names=("go",),
            jobs=jobs,
            strict=False,
            retries=3,
        )
        record = report.failures["go"]
        assert record.kind == KIND_COMPILE and record.injected
        assert record.attempts == 1  # permanent: no retries burned
        assert metrics_enabled.value("retry.attempts") == 0


class TestCacheFaults:
    def test_corrupt_entry_self_heals(self, tmp_path, baselines, metrics_enabled):
        clean_digests, _ = baselines
        set_cache_dir(str(tmp_path / "cache"))
        config = _plan("cache.corrupt:compress")
        first = run_suite(config, names=("compress",), strict=False)
        assert first.ok
        # The store was scribbled: a fresh process (cleared memory
        # layer) hits the corrupt entry, evicts it, and recomputes.
        runner._CACHE.clear()
        second = run_suite(config, names=("compress",), strict=False)
        assert second.ok
        assert result_digest(second["compress"]) == clean_digests["compress"]
        assert metrics_enabled.value("cache.disk.corrupt") == 1

    def test_torn_write_does_not_fail_the_run(self, tmp_path, metrics_enabled):
        """install_result swallows store errors: the computed result
        survives in memory even when the disk write dies mid-flight."""
        set_cache_dir(str(tmp_path / "cache"))
        config = _plan("cache.torn_write:compress")
        report = run_suite(config, names=("compress",), strict=False)
        assert report.ok
        assert metrics_enabled.value("cache.disk.store_errors") == 1
        assert metrics_enabled.value("fault.injected.cache.torn_write") == 1
        assert not list((tmp_path / "cache").glob("*.tmp"))


class TestWatchdog:
    def test_serial_timeout_is_a_terminal_failure(self, baselines):
        clean_digests, _ = baselines
        # No instruction limit: compress runs long enough (~190k steps)
        # for a 1ms watchdog to fire mid-simulation.
        config = SuiteConfig()
        report = run_suite(
            config, names=_NAMES, strict=False, timeout_s=0.001, retries=3
        )
        assert set(report.failures) == {"go", "compress"}
        for record in report.failures.values():
            assert record.kind == KIND_TIMEOUT
            assert record.attempts == 1  # serial timeouts are permanent

    def test_serial_timeout_strict_raises(self):
        with pytest.raises(WorkloadTimeout):
            run_suite(SuiteConfig(), names=("compress",), timeout_s=0.001)

    def test_parallel_hang_hits_parent_deadline(self, baselines, metrics_enabled):
        clean_digests, _ = baselines
        report = run_suite(
            _plan("worker.hang:go"),
            names=_NAMES,
            jobs=2,
            strict=False,
            retries=0,
            timeout_s=0.5,
        )
        record = report.failures["go"]
        assert record.kind == KIND_TIMEOUT
        assert record.attempts == 1  # retries=0
        assert result_digest(report["compress"]) == clean_digests["compress"]
        assert metrics_enabled.value("suite.partial_failures") == 1


class TestZeroFaultRuns:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_recovery_counters_without_faults(self, jobs, metrics_enabled):
        """CI gate twin: clean runs must show zero recovery activity."""
        report = run_suite(_CHAOS, names=_NAMES, jobs=jobs)
        assert report.ok and not report.history
        counters = metrics_enabled.snapshot()["counters"]
        assert metrics_enabled.value("retry.attempts") == 0
        assert metrics_enabled.value("degrade.engine_fallback") == 0
        assert metrics_enabled.value("suite.partial_failures") == 0
        assert not [k for k in counters if k.startswith("fault.injected")]
        for result in report.values():
            assert result.manifest.attempts == 1
            assert not result.manifest.degraded


class TestFailureSpans:
    def test_failures_emit_trace_spans(self, tracer):
        report = run_suite(_plan("asm.error:go"), names=("go",), strict=False)
        assert report.partial
        failure_events = [
            e for e in tracer.events if e.get("name") == "failure"
        ]
        assert failure_events
        args = failure_events[0].get("args", {})
        assert args.get("workload") == "go" and args.get("kind") == KIND_COMPILE


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestSuiteChildren:
    """``run_suite(jobs=2)`` leaves no child process and no pipe behind."""

    def test_strict_failure_reaps_the_other_children(self, leaves_nothing_behind):
        with pytest.raises(AsmError, match="asm.error"):
            run_suite(_plan("asm.error:go"), names=_NAMES, jobs=2)

    def test_crash(self, leaves_nothing_behind):
        report = run_suite(
            _plan("worker.crash:go"), names=_NAMES, jobs=2, strict=False, retries=0
        )
        assert report.failures["go"].kind == KIND_WORKER_CRASH

    def test_hang_past_its_grace(self, leaves_nothing_behind, monkeypatch):
        monkeypatch.setattr(runner, "CHILD_GRACE_S", 0.2)
        started = time.monotonic()
        report = run_suite(
            _plan("worker.hang:go"),
            names=_NAMES,
            jobs=2,
            strict=False,
            retries=0,
            timeout_s=0.3,
        )
        assert time.monotonic() - started < faults.HANG_SECONDS / 6
        assert report.failures["go"].kind == KIND_TIMEOUT
        assert "compress" in report

    def test_without_fork_runs_serially(self, baselines, monkeypatch):
        clean_digests, _ = baselines
        monkeypatch.delattr(os, "fork")
        report = run_suite(_CHAOS, names=_NAMES, jobs=2)
        assert {name: result_digest(r) for name, r in report.items()} == clean_digests
        for result in report.values():
            assert result.manifest.analysis_processes == 1
