"""The two-process analysis shape of ``run_workload`` (DESIGN §6b, §6e).

With two usable CPUs a workload is analyzed by the parent (tracker
group) and a forked child (stream group).  The split must change no
result, every child failure must surface as the one-process run's
failure (or ``worker-crash`` for a child that died), and no child or
pipe may outlive the call.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time
from unittest import mock

import pytest

from repro.asm import assemble
from repro.core.reuse_buffer import ReuseBuffer
from repro.core.value_profile import GlobalLoadValueProfiler
from repro.harness import runner
from repro.harness.experiments import EXPERIMENT_ORDER, EXPERIMENTS
from repro.harness.failures import (
    KIND_SIM_TRAP,
    KIND_TIMEOUT,
    KIND_UNKNOWN,
    KIND_WORKER_CRASH,
    AnalysisChildCrash,
    WorkloadTimeout,
    classify_failure,
)
from repro.harness.runner import SuiteConfig, WorkloadResult, run_suite, run_workload
from repro.sim.errors import SimError
from repro.traces.analyzer import TraceReuseAnalyzer
from repro.workloads import WORKLOAD_ORDER, Workload, get_workload
from tests.sim.test_trap_counts import PROGRAM as JUMP_INTO_DATA
from tests.sim.test_trap_counts import UNALIGNED_LOAD

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

WINDOW = dict(skip_instructions=2_000, limit_instructions=3_000)
SMALL = SuiteConfig(limit_instructions=3_000)


@pytest.fixture
def isolated_caches(tmp_path):
    """No memory or disk cache hits in or out of the test."""
    saved = dict(runner._CACHE), runner._DISK_CACHE, runner._DISK_RESOLVED
    runner._CACHE.clear()
    runner.set_cache_dir(None)
    try:
        yield
    finally:
        runner._CACHE.clear()
        runner._CACHE.update(saved[0])
        runner._DISK_CACHE, runner._DISK_RESOLVED = saved[1:]


def _analyze(name: str, config: SuiteConfig, cpus: int, **kwargs) -> WorkloadResult:
    """A fresh run of ``name`` as if this host had ``cpus`` usable CPUs."""
    runner._CACHE.clear()
    with mock.patch.object(runner, "_usable_cpus", return_value=cpus):
        return run_workload(get_workload(name), config, **kwargs)


def _measured_fields(result: WorkloadResult) -> dict:
    return {
        field.name: getattr(result, field.name)
        for field in dataclasses.fields(result)
        if field.name != "manifest"
    }


def _assert_same_results(split: WorkloadResult, single: WorkloadResult) -> None:
    expected = _measured_fields(single)
    for name, value in _measured_fields(split).items():
        assert value == expected[name], name
    assert split.manifest.analysis_processes == 2
    assert set(split.manifest.split_timing) == {"simulate", "report", "wait"}
    assert single.manifest.analysis_processes == 1
    assert single.manifest.split_timing == {}


def _render(results) -> dict:
    return {exp_id: EXPERIMENTS[exp_id].render(results) for exp_id in EXPERIMENT_ORDER}


class TestParity:
    @pytest.mark.parametrize("engine", ["predecoded", "interpreter"])
    def test_windowed_suite(self, isolated_caches, engine):
        config = SuiteConfig(engine=engine, **WINDOW)
        split, single = {}, {}
        for name in WORKLOAD_ORDER:
            split[name] = _analyze(name, config, cpus=2)
            single[name] = _analyze(name, config, cpus=1)
            _assert_same_results(split[name], single[name])
        assert _render(split) == _render(single)

    @pytest.mark.parametrize("name", ["compress", "li"])
    def test_whole_program(self, isolated_caches, name):
        config = SuiteConfig()
        split = _analyze(name, config, cpus=2)
        single = _analyze(name, config, cpus=1)
        _assert_same_results(split, single)
        assert split.run.stop_reason in ("exit", "halt")
        assert _render({name: split}) == _render({name: single})


def _counting_fork(log_path):
    """An ``os.fork`` that logs the pid of every caller to ``log_path``."""
    real_fork = os.fork

    def fork():
        with open(log_path, "a") as log:
            log.write(f"{os.getpid()}\n")
        return real_fork()

    return fork


def _fork_callers(log_path) -> list:
    if not log_path.exists():
        return []
    return [int(line) for line in log_path.read_text().split()]


class TestWhenItForks:
    def test_two_cpus_fork_once_per_computed_workload(self, isolated_caches, tmp_path):
        log = tmp_path / "forks"
        with mock.patch.object(os, "fork", _counting_fork(log)):
            _analyze("compress", SMALL, cpus=2)
            run_workload(get_workload("compress"), SMALL)  # a memory-cache hit
        assert _fork_callers(log) == [os.getpid()]

    def test_one_cpu_never_forks(self, isolated_caches, tmp_path):
        log = tmp_path / "forks"
        with mock.patch.object(os, "fork", _counting_fork(log)):
            result = _analyze("compress", SMALL, cpus=1)
        assert _fork_callers(log) == []
        assert result.manifest.analysis_processes == 1

    def test_without_fork_runs_in_one_process(self, isolated_caches, monkeypatch):
        monkeypatch.delattr(os, "fork")
        result = _analyze("compress", SMALL, cpus=2)
        assert result.manifest.analysis_processes == 1

    def test_pool_workers_never_fork(self, isolated_caches, tmp_path):
        names = ("compress", "go", "li")
        log = tmp_path / "forks"
        with mock.patch.object(runner, "_usable_cpus", return_value=2):
            with mock.patch.object(os, "fork", _counting_fork(log)):
                pooled = run_suite(SMALL, names, jobs=2)
        # Only the parent forks: it starts the suite's children.
        assert set(_fork_callers(log)) <= {os.getpid()}
        for name in names:
            assert pooled[name].manifest.analysis_processes == 1
            _assert_same_results(_analyze(name, SMALL, cpus=2), pooled[name])


def _failure(name: str, config: SuiteConfig, cpus: int, **kwargs):
    """The exception and failure record of a run expected to fail."""
    with pytest.raises(Exception) as info:
        _analyze(name, config, cpus, **kwargs)
    exc = info.value
    return exc, classify_failure(exc, workload=name, engine=config.engine)


def _raise(error):
    def analyzer_method(self, *args):
        raise error

    return analyzer_method


class TestChildFailures:
    @pytest.mark.parametrize(
        "method, error, kind",
        [
            ("report", ValueError("broken report"), KIND_UNKNOWN),
            ("compile_step", SimError("broken step", pc=0x400010), KIND_SIM_TRAP),
        ],
        ids=["report", "step"],
    )
    def test_stream_analyzer_raises(
        self, isolated_caches, leaves_nothing_behind, monkeypatch, method, error, kind
    ):
        monkeypatch.setattr(TraceReuseAnalyzer, method, _raise(error))
        split_exc, split = _failure("compress", SMALL, cpus=2)
        single_exc, single = _failure("compress", SMALL, cpus=1)
        assert split.kind == single.kind == kind
        assert type(split_exc) is type(single_exc)
        assert str(split_exc) == str(single_exc)
        for annotation in ("engine", "retired_total", "retired_analyzed"):
            assert getattr(split_exc, annotation, None) == getattr(
                single_exc, annotation, None
            )
        # The child's traceback travels with the exception.
        assert "analyzer_method" in str(split_exc.__cause__)

    def test_child_dies_without_a_payload(
        self, isolated_caches, leaves_nothing_behind, monkeypatch
    ):
        monkeypatch.setattr(GlobalLoadValueProfiler, "report", lambda self: os._exit(3))
        exc, record = _failure("compress", SMALL, cpus=2)
        assert isinstance(exc, AnalysisChildCrash)
        assert exc.status == 3
        assert record.kind == KIND_WORKER_CRASH

    def test_unpicklable_return_value_comes_back_as_an_error(self, leaves_nothing_behind):
        child = runner._Child(lambda: (lambda: None), (), "compress", "predecoded", None)
        with pytest.raises(RuntimeError, match="child payload does not pickle"):
            child.join()

    def test_child_killed_by_a_signal(
        self, isolated_caches, leaves_nothing_behind, monkeypatch
    ):
        def killed(self):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(ReuseBuffer, "report", killed)
        exc, record = _failure("compress", SMALL, cpus=2)
        assert isinstance(exc, AnalysisChildCrash)
        assert exc.status == -signal.SIGKILL
        assert record.kind == KIND_WORKER_CRASH

    def test_parent_run_raises(self, isolated_caches, leaves_nothing_behind):
        config = dataclasses.replace(SMALL, fault_plan="engine.trap")
        _, split = _failure("compress", config, cpus=2)
        _, single = _failure("compress", config, cpus=1)
        assert split.kind == single.kind == KIND_SIM_TRAP
        assert split.injected and single.injected

    def test_parent_deadline_expires(self, isolated_caches, leaves_nothing_behind):
        config = SuiteConfig()
        split_exc, split = _failure("gcc", config, cpus=2, deadline_s=0.05)
        _, single = _failure("gcc", config, cpus=1, deadline_s=0.05)
        assert split.kind == single.kind == KIND_TIMEOUT
        assert isinstance(split_exc, WorkloadTimeout)

    def test_child_deadline_expires(
        self, isolated_caches, leaves_nothing_behind, monkeypatch
    ):
        # Only the stream group is slow, so only the child's watchdog fires.
        compile_step = ReuseBuffer.compile_step

        def slow_compile_step(self, pc, instr):
            time.sleep(0.05)
            return compile_step(self, pc, instr)

        monkeypatch.setattr(ReuseBuffer, "compile_step", slow_compile_step)
        split_exc, split = _failure("compress", SMALL, cpus=2, deadline_s=0.5)
        _, single = _failure("compress", SMALL, cpus=1, deadline_s=0.5)
        assert split.kind == single.kind == KIND_TIMEOUT
        assert isinstance(split_exc, WorkloadTimeout)

    def test_hung_child_is_killed_past_its_grace(
        self, isolated_caches, leaves_nothing_behind, monkeypatch
    ):
        monkeypatch.setattr(runner, "CHILD_GRACE_S", 0.2)
        # The child hangs after its watchdog has been disarmed.
        monkeypatch.setattr(
            GlobalLoadValueProfiler, "report", lambda self: time.sleep(60)
        )
        started = time.monotonic()
        exc, record = _failure("compress", SMALL, cpus=2, deadline_s=0.3)
        assert time.monotonic() - started < 10
        assert isinstance(exc, WorkloadTimeout)
        assert record.kind == KIND_TIMEOUT

    def test_disagreeing_child_raises(
        self, isolated_caches, leaves_nothing_behind, monkeypatch
    ):
        parent = os.getpid()
        simulate = runner._simulate

        def drifting_simulate(*args):
            run = simulate(*args)
            if os.getpid() != parent:
                run = dataclasses.replace(run, output=run.output + "drift")
            return run

        monkeypatch.setattr(runner, "_simulate", drifting_simulate)
        exc, record = _failure("compress", SMALL, cpus=2)
        assert "disagree" in str(exc)
        assert record.kind == KIND_UNKNOWN


@dataclasses.dataclass(frozen=True)
class _AsmWorkload(Workload):
    """A workload whose program is hand-written assembly."""

    assembly: str = ""

    def program(self):
        return assemble(self.assembly)


class TestTrapsAgree:
    """A real trap fails ``run_workload`` alike on both engines, in one
    process and split, so running it again on the other engine could
    not change the outcome."""

    @pytest.mark.parametrize(
        "assembly, retired",
        [(JUMP_INTO_DATA, 5), (UNALIGNED_LOAD, 4)],
        ids=["fetch", "load"],
    )
    @pytest.mark.parametrize("skip", [0, 2])
    def test_same_sim_error(
        self, isolated_caches, leaves_nothing_behind, assembly, retired, skip
    ):
        workload = _AsmWorkload(
            "trap", "", "", "", lambda scale: b"", lambda scale: b"", assembly
        )
        seen = {}
        for engine in ("predecoded", "interpreter"):
            config = SuiteConfig(engine=engine, skip_instructions=skip)
            for cpus in (1, 2):
                with mock.patch.object(runner, "_usable_cpus", return_value=cpus):
                    with pytest.raises(SimError) as info:
                        run_workload(workload, config)
                error = info.value
                assert error.engine == engine
                assert not error.injected
                record = classify_failure(error, workload="trap", engine=engine)
                assert record.kind == KIND_SIM_TRAP
                seen[engine, cpus] = (
                    str(error),
                    error.pc,
                    error.retired_total,
                    error.retired_analyzed,
                )
        assert len(set(seen.values())) == 1, seen
        assert seen["interpreter", 1][2:] == (retired, retired - skip)
