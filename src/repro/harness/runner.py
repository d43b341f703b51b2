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

With two usable CPUs, one workload is analyzed in two processes: the
tracker group in this one and the stream group in a forked child that
simulates the same program (:data:`TRACKER_GROUP`, :data:`STREAM_GROUP`).
"""

from __future__ import annotations

import dataclasses
import logging
import os
import pickle
import select
import signal
import time
import traceback
from contextlib import nullcontext
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
    AnalysisChildCrash,
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
from repro.sim import predecode
from repro.sim.observer import Analyzer, takes_steps
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


#: The two analyzer groups, as slices of :func:`build_analyzers`.  They
#: share no state, so each can read its own simulation of the same
#: deterministic stream.  The tracker group is the tracker, the global
#: and local analyzers that read its per-step flag (so they must share
#: its process) and the function analyzer; the stream group (reuse
#: buffer, value profiler, trace reuse) reads only the stream.
#: Measured on m88ksim (process CPU, best of 7): a no-op observer takes
#: 0.224 s and the analyzers add tracker 0.148, global 0.122, local
#: 0.156, reuse buffer 0.147 and trace reuse 0.494 s, function and value
#: profiler 0.013 s together.  The reuse buffer sits in the child: there
#: ``paper-suite`` ``op_s.p50`` was 5.12-5.54 s, in the parent 5.82-5.98 s.
TRACKER_GROUP = slice(0, 4)
STREAM_GROUP = slice(4, None)

#: Slack past ``deadline_s`` before the parent gives up on a child whose
#: own watchdog should already have stopped it.
CHILD_GRACE_S = 3.0


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _splits_analysis() -> bool:
    """Whether a workload is analyzed in two processes (DESIGN §6b).

    Not on a one-CPU host, not without ``os.fork``, and not inside a
    ``run_suite(jobs>1)`` pool worker, whose CPUs the pool already keeps
    busy.
    """
    from repro.harness.parallel import in_pool_worker

    return hasattr(os, "fork") and _usable_cpus() > 1 and not in_pool_worker()


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

    With two usable CPUs the stream group is analyzed in a forked child
    (:class:`_AnalysisChild`); the result, the telemetry and the failure
    a caller sees are those of a one-process run.
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

    input_data = config.input_for(workload)
    analyzers = build_analyzers(config)
    child = None
    if _splits_analysis():
        child = _AnalysisChild(
            workload, program, input_data, config, analyzers[STREAM_GROUP], profile, deadline_s
        )
        analyzers = analyzers[TRACKER_GROUP]
    try:
        phase_start = time.perf_counter()
        run = _simulate(workload, program, input_data, config, analyzers, profile, deadline_s)
        timing["simulate"] = time.perf_counter() - phase_start

        phase_start = time.perf_counter()
        with obs_tracing.span("report", workload=workload.name):
            reports = _reports(analyzers, workload.name)
            if child is not None:
                reports += child.join(run)
            result = WorkloadResult(
                workload,
                run,
                *reports,
                static_program_instructions=program.static_instruction_count,
            )
        timing["report"] = time.perf_counter() - phase_start
    except BaseException:
        if child is not None:
            child.kill()
        raise
    timing["total"] = time.perf_counter() - started

    result.manifest = build_workload_manifest(
        workload.name,
        config,
        source_digest(),
        timing,
        split_timing=child.timing if child is not None else None,
    )
    registry.observe("suite.workload_seconds", timing["total"])
    install_result(result, config)
    return result


def _simulate(
    workload: Workload,
    program,
    input_data: bytes,
    config: SuiteConfig,
    analyzers: List[Analyzer],
    profile: bool,
    deadline_s: Optional[float],
) -> RunResult:
    """One simulation of ``workload`` feeding ``analyzers``, in order.

    Both analysis processes run this, each with its group; a one-process
    run passes the whole stack.  Profiles are published to the registry.
    """
    profiles = None
    if profile:
        analyzers, profiles = obs_profiling.wrap_all(analyzers)
    simulator = Simulator(
        program, input_data=input_data, analyzers=analyzers, engine=config.engine
    )
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
    if profiles is not None:
        for analyzer_profile in profiles:
            analyzer_profile.publish(obs_metrics.REGISTRY)
    return run


def _reports(analyzers: List[Analyzer], workload_name: str) -> list:
    reports = []
    for analyzer in analyzers:
        with obs_tracing.span(
            "analyzer", analyzer=type(analyzer).__name__, workload=workload_name
        ):
            reports.append(analyzer.report())
    return reports


class _ChildTraceback(Exception):
    """The analysis child's traceback, chained to the exception it raised."""


class _AnalysisChild:
    """A forked process that analyzes one workload with the stream group.

    The child simulates the same program, input, engine and window as
    the parent and sends its run, its group's reports, its registry
    snapshot (without the ``sim.*`` counters the parent publishes) and
    its trace events back over a pipe, or else its exception.  The
    parent reads them in :meth:`join` after its own run: a plain pipe,
    no helper thread.
    """

    def __init__(
        self,
        workload: Workload,
        program,
        input_data: bytes,
        config: SuiteConfig,
        analyzers: List[Analyzer],
        profile: bool,
        deadline_s: Optional[float],
    ) -> None:
        self.workload = workload.name
        self.engine = config.engine
        self.deadline_s = deadline_s
        #: Child simulate and report seconds, and the parent's wait.
        self.timing: Dict[str, float] = {}
        if config.engine == "predecoded":
            _prime_factories(program, analyzers, config)
        read_fd, write_fd = os.pipe()
        self.started = time.monotonic()
        try:
            pid = os.fork()
        except BaseException:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            os.close(read_fd)
            _child_main(
                write_fd, workload, program, input_data, config, analyzers, profile, deadline_s
            )
        os.close(write_fd)
        self.pid: Optional[int] = pid
        self.fd: Optional[int] = read_fd

    def join(self, run: RunResult) -> list:
        """The stream group's reports; raises what the child raised.

        ``run`` is the parent's own run: the child's must equal it.
        """
        waited = time.perf_counter()
        try:
            data = self._read()
        except BaseException:
            self.kill()
            raise
        status = self._reap()
        self.timing["wait"] = time.perf_counter() - waited
        try:
            payload = pickle.loads(data)
        except Exception:
            raise AnalysisChildCrash(self.workload, status) from None
        if payload[0] == "err":
            _, exc, text = payload
            raise exc from _ChildTraceback(text)
        _, child_run, reports, timing, metrics, events = payload
        if child_run != run:
            raise RuntimeError(
                f"{self.workload}: the analysis processes disagree: {run} != {child_run}"
            )
        self.timing.update(timing)
        registry = obs_metrics.REGISTRY
        if registry.enabled:
            registry.merge(metrics)
        tracer = obs_tracing.current_tracer()
        if tracer is not None and events:
            tracer.extend(events)
        return reports

    def kill(self) -> None:
        """Stop the child at once and reap it (idempotent)."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
        self._reap()

    def _read(self) -> bytes:
        """The child's whole payload, up to its end of file."""
        poller = None
        if self.deadline_s is not None:
            give_up = self.started + self.deadline_s + CHILD_GRACE_S
            poller = select.poll()
            poller.register(self.fd, select.POLLIN)
        chunks = []
        while True:
            if poller is not None and not poller.poll(
                max(0.0, give_up - time.monotonic()) * 1000
            ):
                raise WorkloadTimeout(self.workload, self.deadline_s, self.engine)
            chunk = os.read(self.fd, 1 << 20)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)

    def _reap(self) -> Optional[int]:
        """Close the pipe and wait for the child; its exit code, once."""
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None
        if self.pid is None:
            return None
        pid, self.pid = self.pid, None
        _, status = os.waitpid(pid, 0)
        return os.waitstatus_to_exitcode(status)


def _prime_factories(program, analyzers: List[Analyzer], config: SuiteConfig) -> None:
    """Generate the child's closure factories in the parent, before forking.

    A factory is ``exec``'d once per process on first use
    (:mod:`repro.sim.predecode`).  Left to the child, they would be
    generated again for every program and die with it.  A pc's first
    instance takes one hook, its later ones one per stepping analyzer
    that compiles a step for it.
    """
    counts = [0, 0] if obs_metrics.REGISTRY.enabled else None
    hooks = range(1, 1 + sum(takes_steps(type(a)) for a in analyzers))
    for instr in program.text:
        if config.skip_instructions:
            predecode._factory(instr, predecode.FAST, counts, 0)
        for count in hooks:
            predecode._factory(instr, predecode.OBSERVED, counts, count)


def _child_main(
    write_fd: int,
    workload: Workload,
    program,
    input_data: bytes,
    config: SuiteConfig,
    analyzers: List[Analyzer],
    profile: bool,
    deadline_s: Optional[float],
) -> None:
    """The forked child: analyze, send the payload, ``os._exit``."""
    status = 1
    try:
        # The parent's run checks the engine fault sites; none fires twice.
        faults.install_plan(None)
        registry = obs_metrics.REGISTRY
        registry.reset()
        # The parent traces the engine phases; the child keeps the
        # inherited tracer (and its clock origin) for its own spans.
        tracer = obs_tracing.current_tracer()
        obs_tracing.install_tracer(None)
        if tracer is not None:
            tracer.events = []
        try:
            started = time.perf_counter()
            with tracer.span("analysis-child", workload=workload.name) if tracer else nullcontext():
                run = _simulate(
                    workload, program, input_data, config, analyzers, profile, deadline_s
                )
            simulated = time.perf_counter()
            obs_tracing.install_tracer(tracer)
            reports = _reports(analyzers, workload.name)
            timing = {
                "simulate": simulated - started,
                "report": time.perf_counter() - simulated,
            }
            snapshot = registry.snapshot()
            metrics = {
                kind: {k: v for k, v in values.items() if not k.startswith("sim.")}
                for kind, values in snapshot.items()
            }
            events = tracer.events if tracer is not None else None
            payload = ("ok", run, reports, timing, metrics, events)
        except Exception as exc:
            payload = ("err", exc, traceback.format_exc())
        try:
            data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            error = RuntimeError(f"analysis child payload does not pickle: {exc!r}")
            data = pickle.dumps(("err", error, traceback.format_exc()))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


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
