"""Tests for the failure taxonomy, recovery policy, and SuiteReport."""

from __future__ import annotations

import pickle

import pytest

from repro.asm.errors import AsmError
from repro.harness.failures import (
    BACKOFF_BASE_S,
    BACKOFF_CAP_S,
    KIND_COMPILE,
    KIND_SIM_TRAP,
    KIND_TIMEOUT,
    KIND_UNKNOWN,
    KIND_WORKER_CRASH,
    AnalysisChildCrash,
    FailureRecord,
    RecoveryPolicy,
    SuiteReport,
    Watchdog,
    WorkloadTimeout,
    backoff_seconds,
    classify_failure,
    plan_next_action,
    result_digest,
)
from repro.core import RepetitionTracker
from repro.harness.runner import SuiteConfig, run_suite
from repro.lang.errors import MiniCError
from repro.sim import Simulator
from repro.sim.errors import SimError
from repro.workloads import get_workload


def _classify(exc, **overrides):
    kwargs = dict(workload="go", engine="predecoded", attempt=1)
    kwargs.update(overrides)
    return classify_failure(exc, **kwargs)


class TestClassification:
    def test_sim_error_is_sim_trap(self):
        record = _classify(SimError("bad access", pc=0x40))
        assert record.kind == KIND_SIM_TRAP
        assert record.exception_type == "SimError"
        assert not record.injected

    def test_compile_errors(self):
        assert _classify(AsmError("bad opcode")).kind == KIND_COMPILE
        assert _classify(MiniCError("parse error")).kind == KIND_COMPILE

    def test_timeout(self):
        record = _classify(WorkloadTimeout("go", 1.5, "predecoded"))
        assert record.kind == KIND_TIMEOUT
        assert "1.5s" in record.message

    def test_unknown(self):
        assert _classify(RuntimeError("boom")).kind == KIND_UNKNOWN

    def test_dead_analysis_child_is_worker_crash(self):
        error = pickle.loads(pickle.dumps(AnalysisChildCrash("go", -9)))
        assert (error.workload, error.status) == ("go", -9)
        record = _classify(error)
        assert record.kind == KIND_WORKER_CRASH
        assert "status -9" in record.message

    def test_injected_marker_propagates(self):
        error = SimError("injected fault")
        error.injected = True
        assert _classify(error).injected

    def test_record_carries_context(self):
        record = _classify(SimError("x"), workload="gcc", attempt=3)
        assert record.workload == "gcc" and record.attempt == 3
        assert record.attempts == 3
        assert len(record.traceback_digest) == 12

    def test_record_pickles_and_dicts(self):
        record = _classify(SimError("x"))
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record
        as_dict = record.to_dict()
        assert as_dict["kind"] == KIND_SIM_TRAP and "when" in as_dict

    def test_workload_timeout_pickles(self):
        error = WorkloadTimeout("go", 2.0, "interpreter")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.workload == "go" and clone.seconds == 2.0
        assert clone.engine == "interpreter"


class TestRecoveryPolicy:
    def test_defaults_are_strict(self):
        policy = RecoveryPolicy()
        assert policy.strict and policy.retries == 2 and policy.timeout_s is None

    def test_backoff_is_deterministic_and_capped(self):
        first = backoff_seconds("go", 1)
        assert first == backoff_seconds("go", 1)
        assert backoff_seconds("go", 1) != backoff_seconds("gcc", 1)
        # Exponential up to the cap, jitter at most +100%.
        for attempt in range(1, 12):
            base = min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2 ** (attempt - 1))
            assert base <= backoff_seconds("go", attempt) < 2 * base

    def test_backoff_jitter_is_unchanged(self):
        """The values the former seed-0 default policy gave."""
        assert backoff_seconds("go", 1) == pytest.approx(0.09113451068988071)
        assert backoff_seconds("gcc", 3) == pytest.approx(0.25497738514095547)
        assert backoff_seconds("li", 7) == pytest.approx(3.8993278574198484)


class TestPlanNextAction:
    def _record(self, kind):
        return FailureRecord(
            kind=kind,
            workload="go",
            engine="predecoded",
            attempt=1,
            message="x",
            exception_type="X",
        )

    def test_compile_errors_fail_immediately(self):
        action = plan_next_action(
            self._record(KIND_COMPILE),
            engine="predecoded",
            degraded=False,
            attempt=1,
            retries=5,
        )
        assert action == "fail"

    def test_sim_trap_degrades_predecode_once(self):
        kwargs = dict(attempt=1, retries=5)
        assert (
            plan_next_action(
                self._record(KIND_SIM_TRAP),
                engine="predecoded",
                degraded=False,
                **kwargs,
            )
            == "degrade"
        )
        # Already on the reference engine (or already degraded): terminal.
        assert (
            plan_next_action(
                self._record(KIND_SIM_TRAP),
                engine="interpreter",
                degraded=False,
                **kwargs,
            )
            == "fail"
        )
        assert (
            plan_next_action(
                self._record(KIND_SIM_TRAP),
                engine="interpreter",
                degraded=True,
                **kwargs,
            )
            == "fail"
        )

    def test_transient_failures_retry_until_budget(self):
        record = self._record(KIND_WORKER_CRASH)
        common = dict(engine="predecoded", degraded=False, retries=2)
        assert plan_next_action(record, attempt=1, **common) == "retry"
        assert plan_next_action(record, attempt=2, **common) == "retry"
        assert plan_next_action(record, attempt=3, **common) == "fail"

    def test_serial_timeouts_are_permanent(self):
        record = self._record(KIND_TIMEOUT)
        assert (
            plan_next_action(
                record,
                engine="predecoded",
                degraded=False,
                attempt=1,
                retries=5,
                transient_timeouts=False,
            )
            == "fail"
        )
        # Pool timeouts stay retryable (hung worker = infra flake).
        assert (
            plan_next_action(
                record,
                engine="predecoded",
                degraded=False,
                attempt=1,
                retries=5,
                transient_timeouts=True,
            )
            == "retry"
        )


class TestSuiteReport:
    def test_behaves_like_a_dict(self):
        report = SuiteReport()
        report["go"] = "result"
        assert list(report) == ["go"] and report["go"] == "result"
        assert report.ok and not report.partial

    def test_failures_flip_partial(self):
        report = SuiteReport()
        report.failures["go"] = FailureRecord(
            kind=KIND_SIM_TRAP,
            workload="go",
            engine="predecoded",
            attempt=1,
            message="x",
            exception_type="SimError",
        )
        assert report.partial and not report.ok
        assert "1 failed" in report.summary()

    def test_pickles_with_attributes(self):
        report = SuiteReport(config=SuiteConfig())
        report["go"] = "result"
        report.failures["gcc"] = FailureRecord(
            kind=KIND_UNKNOWN,
            workload="gcc",
            engine="predecoded",
            attempt=2,
            message="x",
            exception_type="RuntimeError",
        )
        clone = pickle.loads(pickle.dumps(report))
        assert dict(clone) == {"go": "result"}
        assert clone.failures["gcc"].attempt == 2
        assert clone.config == SuiteConfig()


class TestInputValidation:
    def test_run_suite_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            run_suite(SuiteConfig(), names=["go"], jobs=0)
        with pytest.raises(ValueError, match="jobs"):
            run_suite(SuiteConfig(), names=["go"], jobs=-2)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_suite_rejects_duplicate_names(self, jobs):
        with pytest.raises(ValueError, match="duplicate workload names: go"):
            run_suite(SuiteConfig(), names=["go", "compress", "go"], jobs=jobs)


class TestResultDigest:
    def test_digest_stable_and_discriminating(self, suite_results):
        go = suite_results["go"]
        compress = suite_results["compress"]
        assert result_digest(go) == result_digest(go)
        assert result_digest(go) != result_digest(compress)

    def test_digest_ignores_manifest(self, suite_results):
        import dataclasses

        go = suite_results["go"]
        annotated = dataclasses.replace(
            go, manifest=dataclasses.replace(go.manifest, degraded=True, attempts=3)
        )
        assert result_digest(annotated) == result_digest(go)

    def test_digest_survives_pickle_roundtrip(self, suite_results):
        go = suite_results["go"]
        clone = pickle.loads(pickle.dumps(go))
        assert result_digest(clone) == result_digest(go)


class TestWatchdog:
    """An armed watchdog pauses the record-free loop, not only hooked runs.

    go's bare run retires about 300k instructions, far more than the
    predecoded engine retires in the deadline.
    """

    DEADLINE_S = 0.02

    @staticmethod
    def _simulator(analyzers=()):
        workload = get_workload("go")
        return Simulator(
            workload.program(),
            input_data=workload.primary_input(1),
            analyzers=list(analyzers),
        )

    def test_pauses_a_bare_run(self):
        unwatched = self._simulator().run()
        simulator = self._simulator()
        with Watchdog(simulator, self.DEADLINE_S) as watchdog:
            run = simulator.run()
        assert watchdog.fired
        assert run.stop_reason == "paused"
        assert run.total_instructions < unwatched.total_instructions
        finished = simulator.resume()
        assert finished.stop_reason == unwatched.stop_reason
        assert finished.total_instructions == unwatched.total_instructions
        assert finished.output == unwatched.output

    def test_pauses_inside_a_warm_up_window(self):
        skip = 200_000
        simulator = self._simulator([RepetitionTracker()])
        with Watchdog(simulator, self.DEADLINE_S) as watchdog:
            run = simulator.run(skip=skip)
        assert watchdog.fired
        assert run.stop_reason == "paused"
        assert run.total_instructions < skip
        assert run.analyzed_instructions == 0
