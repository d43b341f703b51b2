"""Layer probe: per-layer metrics for the traced run.

The probe calls each layer's public functions once per program (or a
few interleaved times, for the analyzer leave-one-out) inside spans, and
turns the span totals into the per-layer metrics. It does the same work
on every benchmark workload, at that run's seed:

* ``lang`` / ``asm``: compile then assemble each program's source;
* ``sim``: predecode-and-bind, then a whole scale-1 run on the bare fast
  path, on the StepRecord path (a no-op observer) and on the reference
  interpreter;
* ``core`` / ``traces``: each analyzer's marginal cost, the full stack
  minus the stack without it, on the analysis window ``PROBE_CONFIG``;
  the fastest of ``REPEATS`` interleaved runs counts. The repetition
  tracker is kept for its dependants: its cost is the full stack minus
  the stack without tracker, Global and Local, less the Global and Local
  marginals;
* ``harness``: report, cache store and load, rendering, ``run_workload``
  overhead and ``run_suite(jobs=2)`` idle share, all on the window's
  results.

Checks ride along: the three engines must agree, the probe's own stack
must digest identically to ``run_workload`` (analyzer-stack drift), and
the parallel run identically to the serial one.
"""

from __future__ import annotations

import shutil
import time
from typing import Dict, List, Sequence, Tuple

from repro.asm import assemble
from repro.core.function_analysis import FunctionAnalyzer
from repro.core.global_analysis import GlobalSourceAnalyzer
from repro.core.local_analysis import LocalAnalyzer
from repro.core.repetition import RepetitionTracker
from repro.core.reuse_buffer import ReuseBuffer
from repro.core.value_profile import GlobalLoadValueProfiler
from repro.harness import runner
from repro.harness.cache import ResultCache
from repro.harness.failures import result_digest
from repro.harness.runner import SuiteConfig, WorkloadResult
from repro.lang.compiler import compile_to_assembly
from repro.sim import predecode
from repro.sim.observer import Analyzer
from repro.sim.simulator import Simulator
from repro.traces.analyzer import TraceReuseAnalyzer
from repro.workloads.base import Workload

from perfbench import suite
from perfbench.spans import Tracer

#: Analysis window for the leave-one-out and the harness layers.
PROBE_CONFIG = SuiteConfig(skip_instructions=20_000, limit_instructions=5_000)
REPEATS = 3

#: Analyzer names in suite order; metric prefixes follow their modules.
ANALYZERS = (
    "RepetitionTracker",
    "GlobalSourceAnalyzer",
    "FunctionAnalyzer",
    "LocalAnalyzer",
    "ReuseBuffer",
    "GlobalLoadValueProfiler",
    "TraceReuseAnalyzer",
)
LAYER_OF = {name: "core" for name in ANALYZERS}
LAYER_OF["TraceReuseAnalyzer"] = "traces"

#: Stacks timed for the leave-one-out: everything but these analyzers.
DROPS: Tuple[Tuple[str, ...], ...] = (
    (),
    ("RepetitionTracker", "GlobalSourceAnalyzer", "LocalAnalyzer"),
) + tuple((name,) for name in ANALYZERS[1:])


class NoOpObserver(Analyzer):
    """Consumes every step, call and return, so the StepRecord path runs."""

    def on_step(self, record) -> None:
        pass

    def on_call(self, event) -> None:
        pass

    def on_return(self, event) -> None:
        pass


def build_stack(config: SuiteConfig, drop: Sequence[str] = ()) -> Dict[str, Analyzer]:
    """The suite's seven-analyzer stack, in ``run_workload``'s order."""
    tracker = RepetitionTracker(config.buffer_capacity)
    stack = {
        "RepetitionTracker": tracker,
        "GlobalSourceAnalyzer": GlobalSourceAnalyzer(tracker),
        "FunctionAnalyzer": FunctionAnalyzer(),
        "LocalAnalyzer": LocalAnalyzer(tracker),
        "ReuseBuffer": ReuseBuffer(config.reuse_entries, config.reuse_associativity),
        "GlobalLoadValueProfiler": GlobalLoadValueProfiler(),
        "TraceReuseAnalyzer": TraceReuseAnalyzer(
            config.trace_capacity, config.trace_ways, config.trace_max_len
        ),
    }
    return {name: analyzer for name, analyzer in stack.items() if name not in drop}


def _reports(tracer: Tracer, workload: Workload, run, stack) -> WorkloadResult:
    reports = {}
    for name, analyzer in stack.items():
        with tracer.span("core:report", analyzer=name):
            reports[name] = analyzer.report()
    return WorkloadResult(
        workload=workload,
        run=run,
        repetition=reports["RepetitionTracker"],
        global_analysis=reports["GlobalSourceAnalyzer"],
        function_analysis=reports["FunctionAnalyzer"],
        local_analysis=reports["LocalAnalyzer"],
        reuse=reports["ReuseBuffer"],
        value_profile=reports["GlobalLoadValueProfiler"],
        trace_reuse=reports["TraceReuseAnalyzer"],
        static_program_instructions=workload.program().static_instruction_count,
    )


def add_manifest_phases(tracer, started: float, result: WorkloadResult) -> float:
    """Child spans for the phases ``run_workload`` timed itself.

    Returns their summed seconds.
    """
    timing = result.manifest.timing
    at = started
    for phase, name in (
        ("assemble", "asm:Workload.program"),
        ("simulate", "sim+analyzers:Simulator.run"),
        ("report", "core:report"),
    ):
        tracer.add(name, at, at + timing[phase], source="manifest")
        at += timing[phase]
    return at - started


def _engines(tracer: Tracer, workload: Workload, problems: List[str]) -> int:
    name = workload.name
    input_data = workload.primary_input(1)
    with tracer.span("lang:compile_to_assembly"):
        text = compile_to_assembly(workload.source())
    with tracer.span("asm:assemble"):
        program = assemble(text, workload.source_file)
    with tracer.span("sim:predecode.bind"):
        sim = Simulator(program, input_data=input_data)
        predecode.bind_fast(sim)
        predecode.bind_full(sim)
    with tracer.span("sim:Simulator.run[fast]"):
        fast = Simulator(program, input_data=input_data).run()
    with tracer.span("sim:Simulator.run[record]"):
        record = Simulator(program, input_data=input_data, analyzers=[NoOpObserver()]).run()
    with tracer.span("sim:Simulator.run[interpreter]"):
        reference = Simulator(program, input_data=input_data, engine="interpreter").run()
    problems += suite.compare_run(f"{name} fast", fast, reference)
    problems += suite.compare_run(f"{name} record", record, reference)
    return reference.total_instructions


def _leave_one_out(
    tracer: Tracer, workloads: Sequence[Workload]
) -> Tuple[Dict[Tuple[str, Tuple[str, ...]], float], Dict[str, WorkloadResult]]:
    best: Dict[Tuple[str, Tuple[str, ...]], float] = {}
    results: Dict[str, WorkloadResult] = {}
    config = PROBE_CONFIG
    for workload in workloads:
        input_data = workload.primary_input(1)
        # One program's repeats run back to back, so host-speed phases
        # (which last seconds) tend to hit every stack of a repeat alike;
        # the stack order rotates per repeat so no stack always runs first.
        for repeat in range(REPEATS):
            shift = repeat % len(DROPS)
            for drop in DROPS[shift:] + DROPS[:shift]:
                stack = build_stack(config, drop)
                label = "full" if not drop else "minus-" + "-".join(drop)
                with tracer.span("core+traces:stack", trace_id=workload.name, stack=label):
                    sim = Simulator(
                        workload.program(), input_data=input_data, analyzers=list(stack.values())
                    )
                    started = time.perf_counter()
                    run = sim.run(limit=config.limit_instructions, skip=config.skip_instructions)
                    seconds = time.perf_counter() - started
                    if not drop and workload.name not in results:
                        results[workload.name] = _reports(tracer, workload, run, stack)
                key = (workload.name, drop)
                best[key] = min(seconds, best.get(key, seconds))
    return best, results


def _marginals(best, names: Sequence[str]) -> Dict[str, float]:
    def total(drop):
        return sum(best[(name, drop)] for name in names)

    full = total(())
    marginal = {name: full - total((name,)) for name in ANALYZERS[1:]}
    joint = full - total(DROPS[1])
    marginal["RepetitionTracker"] = (
        joint - marginal["GlobalSourceAnalyzer"] - marginal["LocalAnalyzer"]
    )
    return marginal


def run_probe(tracer: Tracer, workloads: Sequence[Workload]) -> Tuple[Dict[str, float], List[str]]:
    """Every per-layer metric except the op-loop ones, plus check failures."""
    problems: List[str] = []
    metrics: Dict[str, float] = {}
    names = [workload.name for workload in workloads]
    # Count only the probe's spans: the traced operations before it may
    # call the same layer functions.
    first = len(tracer.spans)

    def total(name: str) -> float:
        return tracer.total(name, first)

    with tracer.span("bench:probe", trace_id="probe"):
        insns = 0
        for workload in workloads:
            with tracer.span("bench:engines", trace_id=workload.name):
                insns += _engines(tracer, workload, problems)
        best, results = _leave_one_out(tracer, workloads)
        for name, seconds in _marginals(best, names).items():
            metrics[f"{LAYER_OF[name]}.{name}_s"] = seconds
        digests = {name: result_digest(result) for name, result in results.items()}

        cache_dir = suite.WORK_DIR / f"probe-cache-{time.time_ns()}"
        cache = ResultCache(cache_dir)
        hits = 0
        size = 0
        for name, result in results.items():
            with tracer.span("harness.cache:ResultCache.store", trace_id=name):
                cache.store(name, PROBE_CONFIG, result)
            size += cache.path_for(name, PROBE_CONFIG).stat().st_size
            with tracer.span("harness.cache:ResultCache.load", trace_id=name):
                loaded = cache.load(name, PROBE_CONFIG)
            if isinstance(loaded, WorkloadResult):
                hits += 1
                if result_digest(loaded) != digests[name]:
                    problems.append(f"{name}: cache round trip changed the result")
        shutil.rmtree(cache_dir, ignore_errors=True)
        with tracer.span("harness.experiments:render", trace_id="render"):
            suite.render_all(results)

        runner.set_cache_dir(None)
        runner.clear_cache()
        overhead = 0.0
        for workload in workloads:
            with tracer.span("harness.runner:run_workload", trace_id=workload.name) as span:
                result = runner.run_workload(workload, PROBE_CONFIG)
                phases = add_manifest_phases(tracer, span.start, result)
            overhead += span.seconds - phases
            if result_digest(result) != digests[workload.name]:
                problems.append(f"{workload.name}: probe stack drifted from run_workload")
        runner.clear_cache()
        with tracer.span("harness.parallel:run_suite", trace_id="parallel") as pool_span:
            parallel = runner.run_suite(PROBE_CONFIG, names=names, jobs=2)
        busy = sum(result.manifest.timing["total"] for result in parallel.values())
        for name, result in parallel.items():
            if result_digest(result) != digests[name]:
                problems.append(f"{name}: parallel result differs from serial")
        runner.clear_cache()

    repetition = [results[name].repetition for name in names]
    dynamic = sum(report.dynamic_total for report in repetition)
    metrics.update(
        {
            "lang.compile_s": total("lang:compile_to_assembly"),
            "asm.assemble_s": total("asm:assemble"),
            "sim.predecode_s": total("sim:predecode.bind"),
            "sim.fast_s": total("sim:Simulator.run[fast]"),
            "sim.record_s": total("sim:Simulator.run[record]"),
            "sim.interpreter_s": total("sim:Simulator.run[interpreter]"),
            # Only the probe's own report() calls, not the manifest phases.
            "core.report_s": sum(
                span.seconds
                for span in tracer.spans[first:]
                if span.name == "core:report" and "analyzer" in span.args
            ),
            "harness.cache.store_s": total("harness.cache:ResultCache.store"),
            "harness.cache.load_s": total("harness.cache:ResultCache.load"),
            "harness.cache.result_bytes": size,
            "harness.cache.hit_frac": hits / len(results),
            "harness.experiments.render_s": total("harness.experiments:render"),
            "harness.parallel.idle_frac": 1.0 - busy / (2 * pool_span.seconds),
            "harness.runner.overhead_s": overhead,
            "sim.insns": insns,
            "core.RepetitionTracker.repeated_frac": sum(
                report.dynamic_repeated for report in repetition
            )
            / dynamic,
            "core.ReuseBuffer.reuse_frac": sum(
                results[name].reuse.reuse_hits for name in names
            )
            / dynamic,
            "traces.TraceReuseAnalyzer.coverage_frac": sum(
                results[name].trace_reuse.covered_instructions for name in names
            )
            / dynamic,
        }
    )
    return metrics, problems
