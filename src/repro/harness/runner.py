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

``run_suite(..., jobs=N)`` runs up to N workloads at once, each attempt
in a forked child; both cache layers are consulted before any child is
forked.

With two usable CPUs, one workload is analyzed in two processes: the
tracker group in this one and the stream group in a forked child that
simulates the same program (:data:`TRACKER_GROUP`, :data:`STREAM_GROUP`).

Both uses share one mechanism, :class:`_Child`, and both suite drivers
share one recovery state, :class:`_Recovery`.
"""

from __future__ import annotations

import dataclasses
import logging
import math
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
    backoff_seconds,
    classify_failure,
    note_failure,
    plan_next_action,
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


#: True in a ``run_suite(jobs>1)`` child: the suite's children already
#: keep the CPUs busy, so ``run_workload`` analyzes in one process there.
_IN_SUITE_CHILD = False


def _splits_analysis() -> bool:
    """Whether a workload is analyzed in two processes (DESIGN §6b).

    Not on a one-CPU host, not without ``os.fork``, and not inside a
    ``run_suite(jobs>1)`` child.
    """
    return hasattr(os, "fork") and _usable_cpus() > 1 and not _IN_SUITE_CHILD


def run_workload(
    workload: Workload,
    config: SuiteConfig = SuiteConfig(),
    profile: bool = False,
    deadline_s: Optional[float] = None,
) -> WorkloadResult:
    """Run one workload under the full analyzer stack (cached).

    ``profile=True`` times every analyzer's hooks and compiled steps in
    place (:func:`repro.obs.profiling.instrument`) into the metrics
    registry as ``profile.<Analyzer>.<hook>``.  Like every other metric,
    it records nothing while the registry is disabled.

    ``deadline_s`` arms a wall-clock watchdog that pauses the simulator
    at an instruction boundary and raises :class:`WorkloadTimeout`.

    With two usable CPUs the stream group is analyzed in a forked child
    (:func:`_analyze_stream`); the result, the telemetry and the failure
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
    child = split_timing = None
    if _splits_analysis():
        stream = analyzers[STREAM_GROUP]
        if config.engine == "predecoded":
            _prime_factories(program, stream, config)
        child = _Child(
            _analyze_stream,
            (workload, program, input_data, config, stream, profile, deadline_s),
            workload.name,
            config.engine,
            deadline_s,
            # The parent publishes the run's sim.* counters itself.
            skip_metrics="sim.",
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
                waited = time.perf_counter()
                child_run, child_reports, split_timing = child.join()
                split_timing["wait"] = time.perf_counter() - waited
                if child_run != run:
                    raise RuntimeError(
                        f"{workload.name}: the analysis processes disagree: "
                        f"{run} != {child_run}"
                    )
                reports += child_reports
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
        split_timing=split_timing,
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
    run passes the whole stack.  The engine fault sites fire here, before
    any analyzer state is touched, so a failed attempt pollutes nothing
    a retry would reuse.  ``profile`` instruments the analyzers while the
    registry is enabled.
    """
    if faults.armed():
        interpreter = config.engine == "interpreter"
        faults.check("engine.interp_raise" if interpreter else "engine.predecode_raise")
    registry = obs_metrics.REGISTRY
    if profile and registry.enabled:
        for analyzer in analyzers:
            obs_profiling.instrument(analyzer, registry)
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
    return run


def _reports(analyzers: List[Analyzer], workload_name: str) -> list:
    reports = []
    for analyzer in analyzers:
        with obs_tracing.span(
            "report-analyzer", analyzer=type(analyzer).__name__, workload=workload_name
        ):
            reports.append(analyzer.report())
    return reports


def _analyze_stream(
    workload: Workload,
    program,
    input_data: bytes,
    config: SuiteConfig,
    analyzers: List[Analyzer],
    profile: bool,
    deadline_s: Optional[float],
) -> Tuple[RunResult, list, Dict[str, float]]:
    """The analysis child's work: its run, its group's reports, its timing.

    The child simulates the same program, input, engine and window as
    the parent, with the stream group.
    """
    # The parent's run checks the engine fault sites; none fires twice.
    faults.install_plan(None)
    # The parent traces the engine phases; the child only its own spans.
    tracer = obs_tracing.current_tracer()
    obs_tracing.install_tracer(None)
    started = time.perf_counter()
    with tracer.span("analysis-child", workload=workload.name) if tracer else nullcontext():
        run = _simulate(workload, program, input_data, config, analyzers, profile, deadline_s)
    simulated = time.perf_counter()
    obs_tracing.install_tracer(tracer)
    reports = _reports(analyzers, workload.name)
    timing = {"simulate": simulated - started, "report": time.perf_counter() - simulated}
    return run, reports, timing


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


def _suite_attempt(
    name: str,
    config: SuiteConfig,
    attempt: int,
    profile: bool,
    deadline_s: Optional[float],
) -> Tuple[WorkloadResult, float]:
    """One attempt at one workload in a ``run_suite(jobs>1)`` child.

    The plan is installed afresh from the config, so worker-site specs
    fire per attempt: ``worker.crash:go`` crashes every attempt,
    ``worker.crash:go@1`` only the first.  Returns the result and the
    attempt's seconds.
    """
    global _IN_SUITE_CHILD
    _IN_SUITE_CHILD = True
    started = time.perf_counter()
    with faults.scope(workload=name, attempt=attempt):
        plan = config.fault_plan
        faults.install_plan(faults.FaultPlan.parse(plan) if plan else None)
        if faults.armed():
            faults.check("worker.crash", name)
            faults.check("worker.hang", name)
        result = run_workload(get_workload(name), config, profile=profile, deadline_s=deadline_s)
    return result, time.perf_counter() - started


class _ChildTraceback(Exception):
    """A child's traceback, chained to the exception it raised."""


def _poll_ms(give_up: float) -> Optional[float]:
    """Milliseconds until ``give_up`` (``time.monotonic``), for ``poll``."""
    if give_up == math.inf:
        return None
    return max(0.0, give_up - time.monotonic()) * 1000


class _Child:
    """``fn(*args)`` run in a forked process, its outcome sent over a pipe.

    The child starts from an empty metrics registry and an empty event
    list on the inherited tracer (so its spans share the parent's clock
    origin), then sends back ``fn``'s return value, its registry
    snapshot and its trace events, or else its exception and traceback,
    and leaves with ``os._exit``.  The parent reads the pipe to its end
    (:meth:`join`, or the suite's poll loop through :meth:`read`),
    merges the telemetry, and raises what the child raised:

    * a child that dies without a whole payload raises
      :class:`AnalysisChildCrash`;
    * one still running ``CHILD_GRACE_S`` past ``deadline_s`` (its own
      watchdog should have stopped it) is killed, and
      :class:`WorkloadTimeout` raised.

    Every path closes the pipe and reaps the child.  A plain pipe read
    by the caller: no helper thread.
    """

    def __init__(
        self,
        fn,
        args: tuple,
        workload: str,
        engine: str,
        deadline_s: Optional[float],
        skip_metrics: Optional[str] = None,
    ) -> None:
        self.workload = workload
        self.engine = engine
        self.deadline_s = deadline_s
        #: Prefix of the metrics the parent publishes itself.
        self.skip_metrics = skip_metrics
        self.chunks: List[bytes] = []
        self.status: Optional[int] = None
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
            _child_main(write_fd, fn, args)
        os.close(write_fd)
        self.pid = pid
        self.fd: Optional[int] = read_fd

    @property
    def give_up(self) -> float:
        """When the parent stops waiting (``time.monotonic``)."""
        if self.deadline_s is None:
            return math.inf
        return self.started + self.deadline_s + CHILD_GRACE_S

    def read(self) -> bool:
        """Read what the pipe holds; True at its end of file."""
        chunk = os.read(self.fd, 1 << 20)
        self.chunks.append(chunk)
        return not chunk

    def join(self):
        """Wait for the child; its return value (see :meth:`outcome`)."""
        poller = select.poll()
        poller.register(self.fd, select.POLLIN)
        try:
            while poller.poll(_poll_ms(self.give_up)):
                if self.read():
                    return self.outcome()
            self.expire()
        except BaseException:
            self.kill()
            raise

    def outcome(self):
        """After the pipe's end: the return value, or what the child raised."""
        status = self._reap()
        try:
            payload = pickle.loads(b"".join(self.chunks))
        except Exception:
            raise AnalysisChildCrash(self.workload, status) from None
        if payload[0] == "err":
            _, exc, text = payload
            raise exc from _ChildTraceback(text)
        _, value, metrics, events = payload
        registry = obs_metrics.REGISTRY
        if registry.enabled:
            if self.skip_metrics is not None:
                metrics = {
                    kind: {k: v for k, v in values.items() if not k.startswith(self.skip_metrics)}
                    for kind, values in metrics.items()
                }
            registry.merge(metrics)
        tracer = obs_tracing.current_tracer()
        if tracer is not None and events:
            tracer.extend(events)
        return value

    def expire(self) -> None:
        """Kill a child past :attr:`give_up`; raises its timeout."""
        self.kill()
        raise WorkloadTimeout(self.workload, self.deadline_s, self.engine)

    def kill(self) -> None:
        """Stop the child at once and reap it (idempotent)."""
        if self.status is None:
            os.kill(self.pid, signal.SIGKILL)
        self._reap()

    def _reap(self) -> int:
        """Close the pipe and wait for the child; its exit code."""
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None
        if self.status is None:
            _, status = os.waitpid(self.pid, 0)
            self.status = os.waitstatus_to_exitcode(status)
        return self.status


def _child_main(write_fd: int, fn, args: tuple) -> None:
    """The forked child: run ``fn``, send the payload, ``os._exit``."""
    status = 1
    try:
        registry = obs_metrics.REGISTRY
        registry.reset()
        tracer = obs_tracing.current_tracer()
        if tracer is not None:
            tracer.events = []
        try:
            value = fn(*args)
            events = tracer.events if tracer is not None else None
            payload = ("ok", value, registry.snapshot(), events)
        except Exception as exc:
            payload = ("err", exc, traceback.format_exc())
        try:
            data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            error = RuntimeError(f"child payload does not pickle: {exc!r}")
            data = pickle.dumps(("err", error, traceback.format_exc()))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


class _Recovery:
    """One workload's attempts under a :class:`RecoveryPolicy`.

    Both suite drivers keep one per workload: :meth:`failed` classifies
    a failed attempt and plans the next, :meth:`succeeded` ends the
    story with a result annotated with what it took.
    """

    def __init__(
        self, name: str, config: SuiteConfig, policy: RecoveryPolicy, transient_timeouts: bool
    ) -> None:
        self.name = name
        #: The next attempt's config (the reference engine once degraded).
        self.config = config
        self.policy = policy
        self.transient_timeouts = transient_timeouts
        self.attempt = 1
        self.degraded_from: Optional[str] = None
        self.history: List[FailureRecord] = []
        self.result: Optional[WorkloadResult] = None

    def failed(self, exc: Exception) -> Optional[float]:
        """Record a failed attempt; seconds to wait before the next one.

        ``None`` when the failure is terminal; re-raises ``exc`` under a
        strict policy.
        """
        engine = self.config.engine
        record = classify_failure(exc, workload=self.name, engine=engine, attempt=self.attempt)
        self.history.append(record)
        note_failure(record)
        if self.policy.strict:
            raise exc
        action = plan_next_action(
            record,
            engine=engine,
            degraded=self.degraded_from is not None,
            attempt=self.attempt,
            retries=self.policy.retries,
            transient_timeouts=self.transient_timeouts,
        )
        registry = obs_metrics.REGISTRY
        if action == "fail":
            registry.inc("suite.partial_failures")
            return None
        backoff = 0.0
        if action == "degrade":
            registry.inc("degrade.engine_fallback")
            logger.warning(
                "workload %s failed on engine %s (%s); degrading to %s",
                self.name,
                engine,
                record.message,
                REFERENCE_ENGINE,
            )
            self.degraded_from = engine
            self.config = dataclasses.replace(self.config, engine=REFERENCE_ENGINE)
        else:
            registry.inc("retry.attempts")
            backoff = backoff_seconds(self.name, self.attempt)
        self.attempt += 1
        return backoff

    def succeeded(self, result: WorkloadResult) -> None:
        """End with ``result``; its manifest records the recovery story.

        On a copy (``dataclasses.replace``), so the cache layers keep
        the pristine object: a degraded interpreter result is a clean
        cache entry *for the interpreter config* — only the caller that
        asked for predecode sees the degradation flag.
        """
        # A degrade always follows a failed attempt, so history covers it.
        if self.history and result.manifest is not None:
            manifest = dataclasses.replace(
                result.manifest,
                degraded=self.degraded_from is not None,
                degraded_from=self.degraded_from,
                attempts=self.attempt,
                failures=[record.to_dict() for record in self.history],
            )
            result = dataclasses.replace(result, manifest=manifest)
        self.result = result


def _run_serial(
    config: SuiteConfig, names: Tuple[str, ...], profile: bool, policy: RecoveryPolicy
) -> List[_Recovery]:
    """Each workload's attempts back to back in this process, in order.

    One plan serves the whole suite, so ``times`` bounds count across
    workloads.  A timeout is permanent here: the simulator is
    deterministic, so the same workload would burn the same wall clock
    again.
    """
    stories = []
    with faults.armed_plan(config.fault_plan):
        for name in names:
            story = _Recovery(name, config, policy, transient_timeouts=False)
            stories.append(story)
            while story.result is None:
                try:
                    with faults.scope(workload=name, attempt=story.attempt):
                        result = run_workload(
                            get_workload(name),
                            story.config,
                            profile=profile,
                            deadline_s=policy.timeout_s,
                        )
                except Exception as exc:
                    backoff = story.failed(exc)
                    if backoff is None:
                        break
                    time.sleep(backoff)
                else:
                    story.succeeded(result)
    return stories


def _run_forked(
    config: SuiteConfig,
    names: Tuple[str, ...],
    jobs: int,
    profile: bool,
    policy: RecoveryPolicy,
) -> List[_Recovery]:
    """Up to ``jobs`` forked children, each one attempt of one workload.

    The next attempt starts as soon as a child ends; a failed one goes
    back in the queue behind its backoff.  A crash or a hang takes only
    its own child down.  Each child's deadline runs from its own start,
    and a timeout is retried: a hung child is a property of the host,
    not of the workload.  Under a strict policy the first failure kills
    and reaps the other children, then raises.
    """
    registry = obs_metrics.REGISTRY
    stories = [_Recovery(name, config, policy, transient_timeouts=True) for name in names]
    queue: List[Tuple[float, _Recovery]] = []
    for story in stories:
        story.result = cached_result(get_workload(story.name), config)
        if story.result is None:
            queue.append((0.0, story))
    running: Dict[int, Tuple[_Child, _Recovery]] = {}
    poller = select.poll()

    def settle(fd: int, outcome) -> None:
        child, story = running.pop(fd)
        poller.unregister(fd)
        try:
            result, seconds = outcome()
        except Exception as exc:
            backoff = story.failed(exc)
            if backoff is not None:
                queue.append((time.monotonic() + backoff, story))
            return
        # The child already wrote the disk entry.
        install_result(result, story.config, to_disk=False)
        registry.inc("parallel.tasks")
        registry.inc(f"parallel.worker.{child.pid}.tasks")
        registry.observe(f"parallel.worker.{child.pid}.seconds", seconds)
        story.succeeded(result)

    try:
        while queue or running:
            now = time.monotonic()
            for entry in [entry for entry in queue if entry[0] <= now][: jobs - len(running)]:
                queue.remove(entry)
                story = entry[1]
                child = _Child(
                    _suite_attempt,
                    (story.name, story.config, story.attempt, profile, policy.timeout_s),
                    story.name,
                    story.config.engine,
                    policy.timeout_s,
                )
                running[child.fd] = (child, story)
                poller.register(child.fd, select.POLLIN)
            wake = [child.give_up for child, _ in running.values()]
            if len(running) < jobs:
                wake += [ready for ready, _ in queue]
            for fd, _ in poller.poll(_poll_ms(min(wake))):
                if running[fd][0].read():
                    settle(fd, running[fd][0].outcome)
            now = time.monotonic()
            for fd, (child, _) in list(running.items()):
                if child.give_up <= now:
                    settle(fd, child.expire)
    finally:
        for child, _ in running.values():
            child.kill()
    return stories


def run_suite(
    config: SuiteConfig = SuiteConfig(),
    names: Optional[Iterable[str]] = None,
    jobs: int = 1,
    profile: bool = False,
    strict: bool = True,
    retries: int = 2,
    timeout_s: Optional[float] = None,
) -> SuiteReport:
    """Run the whole suite (or ``names``) and return results in order.

    ``jobs > 1`` runs up to ``jobs`` uncached workloads at once, each
    attempt in a forked child; child metrics snapshots are merged into
    this process's registry, so the aggregate telemetry is the same as
    a serial run's.  Without ``os.fork`` the suite runs serially.
    ``profile=True`` records per-analyzer timers while the registry is
    enabled (see :func:`run_workload`).

    The return value is a :class:`SuiteReport` — a dict of surviving
    ``WorkloadResult`` in suite order, plus ``failures``/``history``.
    ``strict`` (default) raises the first error; otherwise transient
    failures get up to ``retries`` more attempts.  ``timeout_s`` is each
    attempt's wall-clock budget (``None``: no watchdog).
    """
    if not isinstance(jobs, int) or jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    selected = tuple(names) if names is not None else WORKLOAD_ORDER
    duplicates = sorted({name for name in selected if selected.count(name) > 1})
    if duplicates:
        raise ValueError(f"duplicate workload names: {', '.join(duplicates)}")
    effective = RecoveryPolicy(strict, retries, timeout_s)
    if jobs > 1 and hasattr(os, "fork"):
        stories = _run_forked(config, selected, jobs, profile, effective)
    else:
        stories = _run_serial(config, selected, profile, effective)
    report = SuiteReport(config=config)
    for story in stories:
        report.history.extend(story.history)
        if story.result is not None:
            report[story.name] = story.result
        else:
            report.failures[story.name] = story.history[-1]
    return report


def clear_cache() -> None:
    """Drop cached results from both layers (tests use this for isolation)."""
    _CACHE.clear()
    disk = _disk_cache()
    if disk is not None:
        disk.clear()
