"""End-to-end telemetry tests: aggregation, cache accounting, CLI flags.

Telemetry must be a pure observer — results are bit-identical with it
on or off, for both engines — and ``run_suite`` must report the same
aggregate metrics whether it ran serially, fanned out over a process
pool, or served everything from cache.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import logging
from unittest import mock

import pytest

from repro.core.repetition import RepetitionTracker
from repro.core.reuse_buffer import ReuseBuffer
from repro.harness import runner
from repro.harness.cli import main
from repro.harness.failures import result_digest
from repro.harness.runner import (
    SuiteConfig,
    run_suite,
    run_workload,
    set_cache_dir,
)
from repro.isa.instructions import Kind
from repro.obs import metrics as obs_metrics
from repro.sim import Analyzer, StepRecord
from repro.sim.simulator import Simulator
from repro.workloads import get_workload

_SMALL = SuiteConfig(limit_instructions=3_000)
_NAMES = ("compress", "go")

#: The suite stack's analyzers, as their profile timers name them.
_ANALYZERS = (
    "RepetitionTracker",
    "GlobalSourceAnalyzer",
    "FunctionAnalyzer",
    "LocalAnalyzer",
    "ReuseBuffer",
    "GlobalLoadValueProfiler",
    "TraceReuseAnalyzer",
)


@pytest.fixture
def isolated_caches(tmp_path):
    """Fresh memory + disk cache layers; module state restored after."""
    saved_memory = dict(runner._CACHE)
    runner._CACHE.clear()
    directory = tmp_path / "result-cache"
    set_cache_dir(str(directory))
    try:
        yield directory
    finally:
        set_cache_dir(None)
        runner._CACHE.clear()
        runner._CACHE.update(saved_memory)


def _simulate(engine: str, limit: int = 2_000, skip: int = 0, bare: bool = False):
    workload = get_workload("compress")
    tracker = RepetitionTracker(2000)
    reuse = ReuseBuffer()
    simulator = Simulator(
        workload.program(),
        input_data=workload.primary_input(1),
        analyzers=[] if bare else [tracker, reuse],
        engine=engine,
    )
    run = simulator.run(limit=limit, skip=skip)
    return run, tracker.report(), reuse.report()


class _KindCounter(Analyzer):
    def __init__(self) -> None:
        self.kinds = collections.Counter()

    def on_step(self, record) -> None:
        self.kinds[record.instr.op.kind] += 1


def _executed_loads_and_stores(config: SuiteConfig):
    """Loads and stores executed in compress's analysis window."""
    workload = get_workload("compress")
    counter = _KindCounter()
    Simulator(
        workload.program(), input_data=config.input_for(workload), analyzers=[counter]
    ).run(limit=config.limit_instructions, skip=config.skip_instructions)
    return counter.kinds[Kind.LOAD], counter.kinds[Kind.STORE]


def _profiled(cpus: int):
    """A profiled compress run on ``cpus`` usable CPUs."""
    with mock.patch.object(runner, "_usable_cpus", return_value=cpus):
        return run_workload(get_workload("compress"), _SMALL, profile=True)


class TestTelemetryIsPureObserver:
    @pytest.mark.parametrize("engine", ("predecoded", "interpreter"))
    def test_results_identical_with_telemetry_on_and_off(self, engine, tracer):
        obs_metrics.disable()
        baseline = _simulate(engine)
        obs_metrics.enable()
        obs_metrics.REGISTRY.reset()
        try:
            telemetered = _simulate(engine)
        finally:
            obs_metrics.disable()
            obs_metrics.REGISTRY.reset()
        base_run, tele_run = baseline[0], telemetered[0]
        assert base_run.analyzed_instructions == tele_run.analyzed_instructions
        assert base_run.total_instructions == tele_run.total_instructions
        assert base_run.stop_reason == tele_run.stop_reason
        assert base_run.exit_code == tele_run.exit_code
        assert base_run.output == tele_run.output
        assert baseline[1] == telemetered[1]  # repetition report
        assert baseline[2] == telemetered[2]  # reuse report

    @pytest.mark.parametrize("engine", ("predecoded", "interpreter"))
    def test_sim_counters_match_the_run(self, engine, metrics_enabled):
        run, _, reuse_report = _simulate(engine)
        assert metrics_enabled.value("sim.instructions.total") == run.total_instructions
        assert metrics_enabled.value("sim.runs") == 1
        # Every instruction the reuse buffer saw was counted by the sim.
        assert (
            metrics_enabled.value("sim.branches")
            + metrics_enabled.value("sim.memory_ops")
            <= reuse_report.dynamic_total
        )
        assert metrics_enabled.value("sim.branches") > 0
        assert metrics_enabled.value("sim.memory_ops") > 0

    @pytest.mark.parametrize(
        "options",
        # Observed closures; fast closures (no analyzers); a fast warm-up
        # followed by observed closures.
        [{}, {"bare": True}, {"skip": 1_500}],
        ids=["records", "bare", "warmup"],
    )
    def test_engines_count_kinds_identically(self, metrics_enabled, options):
        _simulate("predecoded", **options)
        predecoded = metrics_enabled.snapshot()["counters"]
        metrics_enabled.reset()
        _simulate("interpreter", **options)
        interpreter = metrics_enabled.snapshot()["counters"]
        # Zero-valued counters are never published; default them to 0.
        for name in ("sim.branches", "sim.memory_ops", "sim.syscalls", "sim.calls"):
            assert predecoded.get(name, 0) == interpreter.get(name, 0), name
        assert predecoded.get("sim.branches", 0) > 0
        assert predecoded.get("sim.memory_ops", 0) > 0


class TestSuiteAggregation:
    def test_serial_suite_metrics(self, isolated_caches, metrics_enabled, tracer):
        results = run_suite(_SMALL, _NAMES)
        counters = metrics_enabled.snapshot()["counters"]
        assert counters["cache.misses"] == len(_NAMES)
        assert counters["sim.runs"] == len(_NAMES)
        assert counters["sim.instructions.total"] == sum(
            r.run.total_instructions for r in results.values()
        )
        assert metrics_enabled.timer("suite.workload_seconds").count == len(_NAMES)
        assert tracer.span_count("simulate") == len(_NAMES)
        assert tracer.span_count("assemble") == len(_NAMES)

    def test_parallel_suite_aggregates_like_serial(
        self, isolated_caches, metrics_enabled, tracer
    ):
        results = run_suite(_SMALL, _NAMES, jobs=2)
        counters = metrics_enabled.snapshot()["counters"]
        assert counters["parallel.tasks"] == len(_NAMES)
        worker_tasks = [
            value
            for name, value in counters.items()
            if name.startswith("parallel.worker.") and name.endswith(".tasks")
        ]
        assert sum(worker_tasks) == len(_NAMES)
        assert counters["sim.runs"] == len(_NAMES)
        assert counters["sim.instructions.total"] == sum(
            r.run.total_instructions for r in results.values()
        )
        # Worker trace events were spliced into the parent tracer.
        assert tracer.span_count("simulate") == len(_NAMES)

    def test_warm_cached_suite_reports_only_hits(self, isolated_caches):
        run_suite(_SMALL, _NAMES)  # populate both cache layers, telemetry off
        obs_metrics.enable()
        obs_metrics.REGISTRY.reset()
        from repro.obs import tracing as obs_tracing

        warm_tracer = obs_tracing.SpanTracer()
        obs_tracing.install_tracer(warm_tracer)
        try:
            results = run_suite(_SMALL, _NAMES)
            counters = obs_metrics.REGISTRY.snapshot()["counters"]
        finally:
            obs_tracing.install_tracer(None)
            obs_metrics.disable()
            obs_metrics.REGISTRY.reset()
        assert counters["cache.hits"] == len(_NAMES)
        assert "cache.misses" not in counters
        assert warm_tracer.span_count("simulate") == 0
        for result in results.values():
            assert result.manifest.cache == "memory-hit"

    def test_profile_publishes_per_analyzer_timers(
        self, isolated_caches, metrics_enabled
    ):
        run_workload(get_workload("compress"), _SMALL, profile=True)
        timers = metrics_enabled.snapshot()["timers"]
        step_timers = {k: v for k, v in timers.items() if k.endswith(".on_step")}
        assert "profile.RepetitionTracker.on_step" in step_timers
        steps = step_timers["profile.RepetitionTracker.on_step"]["count"]
        assert steps == _SMALL.limit_instructions

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_analyzer_counters_reach_the_registry(
        self, isolated_caches, metrics_enabled, jobs
    ):
        results = run_suite(_SMALL, _NAMES, jobs=jobs)
        counters = metrics_enabled.snapshot()["counters"]
        assert counters["sim.runs"] == len(_NAMES)
        assert counters["reuse.probes"] == sum(
            r.reuse.dynamic_total for r in results.values()
        )
        assert counters["trace.probes"] == sum(
            r.trace_reuse.probes for r in results.values()
        )
        assert counters["reuse.probes"] > 0 and counters["trace.probes"] > 0

    def test_profile_times_every_analyzer(self, isolated_caches, metrics_enabled):
        result = run_workload(get_workload("compress"), _SMALL, profile=True)
        timers = metrics_enabled.snapshot()["timers"]
        steps = {name: timers[f"profile.{name}.on_step"]["count"] for name in _ANALYZERS}
        analyzed = result.run.analyzed_instructions
        loads, stores = _executed_loads_and_stores(_SMALL)
        # Each analyzer is charged for the steps it compiled, no more.
        assert steps == {
            "RepetitionTracker": analyzed,
            "GlobalSourceAnalyzer": analyzed,
            "FunctionAnalyzer": loads + stores,
            "LocalAnalyzer": analyzed,
            "ReuseBuffer": analyzed,
            "GlobalLoadValueProfiler": loads,
            "TraceReuseAnalyzer": analyzed,
        }
        assert stores > 0 and steps["FunctionAnalyzer"] < analyzed

    def test_manifest_attached_to_computed_result(self, isolated_caches):
        result = run_workload(get_workload("compress"), _SMALL)
        manifest = result.manifest
        assert manifest is not None
        assert manifest.workload == "compress"
        assert manifest.engine == _SMALL.engine
        assert manifest.cache == "computed"
        assert set(manifest.timing) == {"assemble", "simulate", "report", "total"}


class TestProfile:
    @pytest.mark.parametrize("metrics", [True, False], ids=["metrics-on", "metrics-off"])
    def test_split_and_one_process_runs_record_the_same_timers(
        self, isolated_caches, metrics
    ):
        timers = {}
        for cpus in (1, 2):
            runner.clear_cache()
            obs_metrics.REGISTRY.reset()
            obs_metrics.REGISTRY.enabled = metrics
            try:
                _profiled(cpus)
                snapshot = obs_metrics.REGISTRY.snapshot()["timers"]
            finally:
                obs_metrics.disable()
                obs_metrics.REGISTRY.reset()
            timers[cpus] = {name for name in snapshot if name.startswith("profile.")}
        assert timers[1] == timers[2]
        if metrics:
            assert {name.split(".")[1] for name in timers[1]} == set(_ANALYZERS)
        else:
            assert timers[1] == set()

    def test_predecoded_profile_builds_no_step_records(
        self, isolated_caches, metrics_enabled, monkeypatch
    ):
        built = []
        init = StepRecord.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(StepRecord, "__init__", counting_init)
        result = _profiled(1)
        assert result.run.analyzed_instructions == _SMALL.limit_instructions
        assert metrics_enabled.timer("profile.RepetitionTracker.on_step").count > 0
        assert built == []

    @pytest.mark.parametrize("engine", ("predecoded", "interpreter"))
    def test_profiled_result_digests_like_a_plain_one(
        self, isolated_caches, metrics_enabled, engine
    ):
        config = dataclasses.replace(_SMALL, engine=engine)
        workload = get_workload("compress")
        plain = result_digest(run_workload(workload, config))
        runner.clear_cache()
        profiled = result_digest(run_workload(workload, config, profile=True))
        assert metrics_enabled.timer("profile.RepetitionTracker.on_step").count > 0
        assert profiled == plain


class TestCorruptCacheEntries:
    def test_corrupt_entry_is_counted_warned_and_evicted(
        self, isolated_caches, metrics_enabled, caplog
    ):
        workload = get_workload("compress")
        run_workload(workload, _SMALL)
        disk = runner._disk_cache()
        path = disk.path_for(workload.name, _SMALL)
        assert path.exists()
        path.write_bytes(b"not a pickle")
        runner._CACHE.clear()
        with caplog.at_level(logging.WARNING, logger="repro.harness.cache"):
            assert disk.load(workload.name, _SMALL) is None
        assert metrics_enabled.value("cache.disk.corrupt") == 1
        assert not path.exists()  # evicted, not left to fail forever
        assert any(
            "corrupt result-cache entry" in record.message for record in caplog.records
        )


class TestCliTelemetryFlags:
    def test_flags_parse(self):
        from repro.harness.cli import build_parser

        args = build_parser().parse_args(
            ["--profile", "--metrics-out", "m.json", "--trace-out", "t.json"]
        )
        assert args.profile
        assert args.metrics_out == "m.json"
        assert args.trace_out == "t.json"

    def test_telemetry_only_run_allows_empty_experiments(
        self, isolated_caches, tmp_path, capsys
    ):
        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "--workloads",
                "compress",
                "--metrics-out",
                str(metrics_path),
                "--trace-out",
                str(trace_path),
            ]
        )
        assert code == 0
        metrics = json.loads(metrics_path.read_text())
        assert metrics["metrics"]["counters"]["sim.runs"] == 1
        assert metrics["manifest"]["kind"] == "suite"
        trace = json.loads(trace_path.read_text())
        begins = [e for e in trace["traceEvents"] if e["ph"] == "B"]
        ends = [e for e in trace["traceEvents"] if e["ph"] == "E"]
        assert len(begins) == len(ends) > 0
        # Global state was restored on the way out.
        assert not obs_metrics.REGISTRY.enabled
        from repro.obs import tracing as obs_tracing

        assert obs_tracing.current_tracer() is None

    def test_profile_prints_table(self, isolated_caches, capsys):
        code = main(["table2", "--workloads", "compress", "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "== profile ==" in out
        assert "RepetitionTracker" in out
        assert "on_step" in out

    def test_profile_phase_rows_are_not_named_analyzer(self, isolated_caches, capsys):
        code = main(["table1", "--workloads", "compress", "--profile"])
        assert code == 0
        lines = capsys.readouterr().out.split("== profile ==")[1].splitlines()
        header = next(
            i for i, line in enumerate(lines) if line.split()[:2] == ["analyzer", "hook"]
        )
        phases = [line.split()[0] for line in lines[3:header] if line.strip()]
        # The per-analyzer report span has its own name, so no phase row
        # reads like the analyzer table's header below it.
        assert "report-analyzer" in phases
        assert "analyzer" not in phases

    def test_markdown_gets_sidecar_manifest(self, isolated_caches, tmp_path, capsys):
        report = tmp_path / "report.md"
        code = main(["table2", "--workloads", "compress", "--markdown", str(report)])
        assert code == 0
        sidecar = tmp_path / "report.md.manifest.json"
        assert report.exists() and sidecar.exists()
        manifest = json.loads(sidecar.read_text())
        assert manifest["kind"] == "suite"
        assert "compress" in manifest["workloads"]
