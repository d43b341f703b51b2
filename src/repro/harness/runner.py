"""Suite runner: execute workloads under the full analysis stack.

One simulated run per (workload, configuration) feeds *all* the paper's
tables and figures, so results are cached at two layers:

* an in-process dict (the fifteen experiment reproductions and the
  test-suite fixtures share simulations instead of re-running them), and
* an optional on-disk :class:`~repro.harness.cache.ResultCache` so
  repeated CLI / experiment invocations skip simulation altogether.
  Enable it with :func:`set_cache_dir` or the ``REPRO_CACHE_DIR``
  environment variable; entries self-invalidate when the source tree
  changes (see :mod:`repro.harness.cache`).

``run_suite(..., jobs=N)`` fans the suite out over a process pool
(:mod:`repro.harness.parallel`); both cache layers are consulted before
any worker is spawned.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.function_analysis import FunctionAnalysisReport, FunctionAnalyzer
from repro.core.global_analysis import GlobalAnalysisReport, GlobalSourceAnalyzer
from repro.core.local_analysis import LocalAnalysisReport, LocalAnalyzer
from repro.core.repetition import RepetitionReport, RepetitionTracker
from repro.core.reuse_buffer import ReuseBuffer, ReuseBufferReport
from repro.core.value_profile import GlobalLoadValueProfiler, ValueProfileReport
from repro.harness import faults
from repro.harness.cache import ResultCache, default_cache_dir, source_digest
from repro.harness.failures import (
    FailureRecord,
    RecoveryPolicy,
    SuiteReport,
    Watchdog,
    WorkloadTimeout,
    classify_failure,
    note_failure,
    plan_next_action,
    resolve_policy,
)
from repro.obs import metrics as obs_metrics
from repro.obs import profiling as obs_profiling
from repro.obs import tracing as obs_tracing
from repro.obs.manifest import RunManifest, build_workload_manifest
from repro.sim.observer import Analyzer
from repro.sim.simulator import DEFAULT_ENGINE, RunResult, Simulator
from repro.traces.analyzer import TraceReuseAnalyzer, TraceReuseReport
from repro.workloads import WORKLOAD_ORDER, Workload, get_workload

logger = logging.getLogger("repro.harness.runner")

#: Engine the recovery loop degrades to when a faster engine traps.
REFERENCE_ENGINE = "interpreter"


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs for one suite run (defaults follow the paper's setup)."""

    #: Input-size multiplier (~150k dynamic instructions per unit).
    scale: int = 1
    #: Unique instances buffered per static instruction (paper: 2000).
    buffer_capacity: int = 2000
    #: Reuse buffer geometry (paper: 8K entries, 4-way).
    reuse_entries: int = 8192
    reuse_associativity: int = 4
    #: Analysis window (paper: skip 500M, run 1B — scaled down here).
    skip_instructions: int = 0
    limit_instructions: Optional[int] = None
    #: "primary" or "secondary" input set.
    input_kind: str = "primary"
    #: Execution engine: "predecoded" (fast) or "interpreter" (reference).
    engine: str = DEFAULT_ENGINE
    #: Trace reuse table geometry (analyzer-only; Table 10T).
    trace_capacity: int = 1024
    trace_ways: int = 4
    trace_max_len: int = 16
    #: Fault-injection plan (spec string, see :mod:`repro.harness.faults`).
    #: Part of the config — and therefore the cache key — on purpose:
    #: faulted runs can never serve or poison clean cache entries.
    fault_plan: Optional[str] = None

    def input_for(self, workload: Workload) -> bytes:
        if self.input_kind == "primary":
            return workload.primary_input(self.scale)
        if self.input_kind == "secondary":
            return workload.secondary_input(self.scale)
        raise ValueError(f"unknown input kind {self.input_kind!r}")


@dataclass
class WorkloadResult:
    """All per-workload reports needed by the tables and figures."""

    workload: Workload
    run: RunResult
    repetition: RepetitionReport
    global_analysis: GlobalAnalysisReport
    function_analysis: FunctionAnalysisReport
    local_analysis: LocalAnalysisReport
    reuse: ReuseBufferReport
    value_profile: ValueProfileReport
    trace_reuse: TraceReuseReport
    static_program_instructions: int = 0
    #: Provenance: engine, config, source digest, cache disposition, timing.
    manifest: Optional[RunManifest] = None


_CACHE: Dict[Tuple[str, SuiteConfig], WorkloadResult] = {}

# Disk layer, resolved lazily from $REPRO_CACHE_DIR unless set explicitly.
_DISK_CACHE: Optional[ResultCache] = None
_DISK_RESOLVED = False


def _disk_cache() -> Optional[ResultCache]:
    global _DISK_CACHE, _DISK_RESOLVED
    if not _DISK_RESOLVED:
        _DISK_RESOLVED = True
        directory = default_cache_dir()
        if directory is not None:
            _DISK_CACHE = ResultCache(directory)
    return _DISK_CACHE


def set_cache_dir(directory: Optional[str]) -> None:
    """Point the persistent result cache at ``directory`` (None disables)."""
    global _DISK_CACHE, _DISK_RESOLVED
    _DISK_RESOLVED = True
    _DISK_CACHE = ResultCache(directory) if directory is not None else None


def cache_directory() -> Optional[str]:
    """The active persistent-cache directory, or ``None`` when disabled."""
    disk = _disk_cache()
    return str(disk.directory) if disk is not None else None


def cached_result(
    workload: Workload, config: SuiteConfig
) -> Optional[WorkloadResult]:
    """Check both cache layers without simulating (disk hits are promoted)."""
    key = (workload.name, config)
    registry = obs_metrics.REGISTRY
    cached = _CACHE.get(key)
    if cached is not None:
        registry.inc("cache.hits")
        registry.inc("cache.memory_hits")
        if cached.manifest is not None:
            cached.manifest.cache = "memory-hit"
        return cached
    disk = _disk_cache()
    if disk is not None:
        loaded = disk.load(workload.name, config)
        if isinstance(loaded, WorkloadResult):
            registry.inc("cache.hits")
            if loaded.manifest is not None:
                loaded.manifest.cache = "disk-hit"
            _CACHE[key] = loaded
            return loaded
    return None


def install_result(
    result: WorkloadResult, config: SuiteConfig, to_disk: bool = True
) -> None:
    """Install an externally computed result into the cache layers.

    A failed disk store (full disk, permissions, an injected torn
    write) never loses the computed result: the in-memory layer already
    holds it, so the error is logged and counted, not raised.
    """
    _CACHE[(result.workload.name, config)] = result
    if to_disk:
        disk = _disk_cache()
        if disk is not None:
            try:
                disk.store(result.workload.name, config, result)
            except Exception as exc:
                obs_metrics.REGISTRY.inc("cache.disk.store_errors")
                logger.warning(
                    "persistent-cache store failed for %s (%s: %s)",
                    result.workload.name,
                    type(exc).__name__,
                    exc,
                )


def build_analyzers(config: SuiteConfig) -> List[Analyzer]:
    """The suite's seven-analyzer stack for ``config``, in dependency order.

    The repetition tracker comes first: the global and local analyzers
    read its per-step flag.  Order: tracker, global, function, local,
    reuse buffer, value profiler, trace reuse.
    """
    tracker = RepetitionTracker(config.buffer_capacity)
    return [
        tracker,
        GlobalSourceAnalyzer(tracker),
        FunctionAnalyzer(),
        LocalAnalyzer(tracker),
        ReuseBuffer(config.reuse_entries, config.reuse_associativity),
        GlobalLoadValueProfiler(),
        TraceReuseAnalyzer(config.trace_capacity, config.trace_ways, config.trace_max_len),
    ]


def run_workload(
    workload: Workload,
    config: SuiteConfig = SuiteConfig(),
    profile: bool = False,
    deadline_s: Optional[float] = None,
) -> WorkloadResult:
    """Run one workload under the full analyzer stack (cached).

    ``profile=True`` wraps every analyzer in a per-hook timing proxy
    (:mod:`repro.obs.profiling`); the measured attribution lands in the
    metrics registry under ``profile.<Analyzer>.<hook>``.

    ``deadline_s`` arms a wall-clock watchdog that pauses the simulator
    at an instruction boundary and raises :class:`WorkloadTimeout`.
    """
    cached = cached_result(workload, config)
    if cached is not None:
        return cached
    with faults.armed_plan(config.fault_plan), faults.scope(workload=workload.name):
        return _compute_workload(workload, config, profile, deadline_s)


def _compute_workload(
    workload: Workload,
    config: SuiteConfig,
    profile: bool,
    deadline_s: Optional[float],
) -> WorkloadResult:
    registry = obs_metrics.REGISTRY
    registry.inc("cache.misses")
    started = time.perf_counter()
    timing: Dict[str, float] = {}

    with obs_tracing.span("assemble", workload=workload.name):
        if faults.armed():
            faults.check("asm.error", workload.name)
        program = workload.program()
    timing["assemble"] = time.perf_counter() - started

    analyzers = build_analyzers(config)
    (
        tracker,
        global_analyzer,
        function_analyzer,
        local_analyzer,
        reuse,
        value_profiler,
        trace_analyzer,
    ) = analyzers
    profiles = None
    if profile:
        analyzers, profiles = obs_profiling.wrap_all(analyzers)
    simulator = Simulator(
        program,
        input_data=config.input_for(workload),
        analyzers=analyzers,
        engine=config.engine,
    )
    phase_start = time.perf_counter()
    if deadline_s is not None:
        with Watchdog(simulator, deadline_s) as watchdog:
            run = simulator.run(
                limit=config.limit_instructions, skip=config.skip_instructions
            )
        if watchdog.fired and run.stop_reason == "paused":
            raise WorkloadTimeout(workload.name, deadline_s, config.engine)
    else:
        run = simulator.run(
            limit=config.limit_instructions, skip=config.skip_instructions
        )
    timing["simulate"] = time.perf_counter() - phase_start

    def _report(analyzer):
        with obs_tracing.span(
            "analyzer", analyzer=type(analyzer).__name__, workload=workload.name
        ):
            return analyzer.report()

    phase_start = time.perf_counter()
    with obs_tracing.span("report", workload=workload.name):
        result = WorkloadResult(
            workload=workload,
            run=run,
            repetition=_report(tracker),
            global_analysis=_report(global_analyzer),
            function_analysis=_report(function_analyzer),
            local_analysis=_report(local_analyzer),
            reuse=_report(reuse),
            value_profile=_report(value_profiler),
            trace_reuse=_report(trace_analyzer),
            static_program_instructions=program.static_instruction_count,
        )
    timing["report"] = time.perf_counter() - phase_start
    timing["total"] = time.perf_counter() - started

    result.manifest = build_workload_manifest(
        workload.name, config, source_digest(), timing
    )
    if profiles is not None:
        for analyzer_profile in profiles:
            analyzer_profile.publish(registry)
    registry.observe("suite.workload_seconds", timing["total"])
    install_result(result, config)
    return result


def _annotate_result(
    result: WorkloadResult,
    history: List[FailureRecord],
    attempts: int,
    degraded_from: Optional[str] = None,
) -> WorkloadResult:
    """A copy of ``result`` whose manifest records its recovery story.

    Copies (``dataclasses.replace``) so the cache layers keep the
    pristine object: a degraded interpreter result is a perfectly clean
    cache entry *for the interpreter config* — only the caller that
    asked for predecode sees the degradation flag.
    """
    if result.manifest is None:
        return result
    manifest = dataclasses.replace(
        result.manifest,
        degraded=degraded_from is not None,
        degraded_from=degraded_from,
        attempts=attempts,
        failures=[record.to_dict() for record in history],
    )
    return dataclasses.replace(result, manifest=manifest)


def run_workload_recovering(
    workload: Workload,
    config: SuiteConfig,
    policy: RecoveryPolicy,
    profile: bool = False,
) -> Tuple[Optional[WorkloadResult], List[FailureRecord]]:
    """Run one workload under the recovery policy (serial path).

    Returns ``(result, failed_attempts)``; ``result`` is ``None`` when
    every attempt failed (the last record in the history is terminal).
    With ``policy.strict`` the first failure re-raises instead.
    """
    registry = obs_metrics.REGISTRY
    history: List[FailureRecord] = []
    attempt = 1
    run_config = config
    degraded_from: Optional[str] = None
    while True:
        try:
            with faults.scope(workload=workload.name, attempt=attempt):
                result = run_workload(
                    workload, run_config, profile=profile, deadline_s=policy.timeout_s
                )
        except Exception as exc:
            record = classify_failure(
                exc, workload=workload.name, engine=run_config.engine, attempt=attempt
            )
            history.append(record)
            note_failure(record)
            if policy.strict:
                raise
            action = plan_next_action(
                record,
                engine=run_config.engine,
                degraded=degraded_from is not None,
                attempt=attempt,
                retries=policy.retries,
                # A serial timeout is deterministic: the same workload
                # would burn the same wall clock again.
                transient_timeouts=False,
            )
            if action == "degrade":
                registry.inc("degrade.engine_fallback")
                logger.warning(
                    "workload %s failed on engine %s (%s); degrading to %s",
                    workload.name,
                    run_config.engine,
                    record.message,
                    REFERENCE_ENGINE,
                )
                degraded_from = run_config.engine
                run_config = dataclasses.replace(run_config, engine=REFERENCE_ENGINE)
                attempt += 1
                continue
            if action == "retry":
                registry.inc("retry.attempts")
                time.sleep(policy.backoff_seconds(workload.name, attempt))
                attempt += 1
                continue
            return None, history
        if history or degraded_from is not None:
            result = _annotate_result(result, history, attempt, degraded_from)
        return result, history


def run_suite(
    config: SuiteConfig = SuiteConfig(),
    names: Optional[Iterable[str]] = None,
    jobs: int = 1,
    profile: bool = False,
    policy: Optional[RecoveryPolicy] = None,
    strict: Optional[bool] = None,
    retries: Optional[int] = None,
    timeout_s: Optional[float] = None,
) -> SuiteReport:
    """Run the whole suite (or ``names``) and return results in order.

    ``jobs > 1`` fans uncached workloads out over a process pool; worker
    metrics snapshots are merged into this process's registry, so the
    aggregate telemetry is the same as a serial run's.

    The return value is a :class:`SuiteReport` — a dict of surviving
    ``WorkloadResult`` in suite order, plus ``failures``/``history``.
    Under the default strict policy the first error still raises, so
    existing callers see exactly the historical behaviour.
    """
    if not isinstance(jobs, int) or jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    selected = tuple(names) if names is not None else WORKLOAD_ORDER
    effective = resolve_policy(policy, strict, retries, timeout_s)
    if jobs > 1:
        from repro.harness.parallel import run_suite_parallel

        return run_suite_parallel(
            config, selected, jobs=jobs, profile=profile, policy=effective
        )
    report = SuiteReport(config=config)
    registry = obs_metrics.REGISTRY
    with faults.armed_plan(config.fault_plan):
        for name in selected:
            result, failed = run_workload_recovering(
                get_workload(name), config, effective, profile=profile
            )
            report.history.extend(failed)
            if result is not None:
                report[name] = result
            else:
                report.failures[name] = failed[-1]
                registry.inc("suite.partial_failures")
    return report


def clear_cache() -> None:
    """Drop cached results from both layers (tests use this for isolation)."""
    _CACHE.clear()
    disk = _disk_cache()
    if disk is not None:
        disk.clear()
