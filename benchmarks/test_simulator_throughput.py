"""Throughput benchmarks for the simulation substrate itself.

Not a paper artifact — these keep the instrumentation overhead honest:
the bare simulator versus the full seven-analyzer stack the experiments
run with (built by the suite's own ``build_analyzers``).
"""

from __future__ import annotations

from repro.core import RepetitionTracker
from repro.harness import SuiteConfig, build_analyzers
from repro.traces import TraceReuseAnalyzer

from _bench_utils import simulate_with


def _full_stack():
    return build_analyzers(SuiteConfig())


def test_bare_simulator_throughput(benchmark):
    benchmark(simulate_with, lambda: [], "m88ksim", 25_000)


def test_bare_simulator_throughput_metrics_enabled(benchmark):
    """Same bare run with the metrics registry armed.

    Keeps the hot-loop counting closures honest: CI derives
    ``telemetry_overhead_pct`` from this pair and fails above 5%.
    """
    from repro.obs import metrics as obs_metrics

    obs_metrics.enable()
    obs_metrics.REGISTRY.reset()
    try:
        benchmark(simulate_with, lambda: [], "m88ksim", 25_000)
    finally:
        obs_metrics.disable()
        obs_metrics.REGISTRY.reset()


def test_repetition_tracker_throughput(benchmark):
    benchmark(simulate_with, lambda: [RepetitionTracker()], "m88ksim", 25_000)


def test_trace_analyzer_throughput(benchmark):
    """The Table 10T measurement pass (shadow state, recording, table)."""
    benchmark(simulate_with, lambda: [TraceReuseAnalyzer()], "m88ksim", 25_000)


def test_full_analysis_stack_throughput(benchmark):
    benchmark(simulate_with, _full_stack, "m88ksim", 25_000)


def test_compiler_throughput(benchmark):
    """MiniC compilation speed over the largest workload source."""
    from repro.lang import compile_source
    from repro.workloads import get_workload

    source = get_workload("gcc").source()
    program = benchmark(compile_source, source)
    assert program.static_instruction_count > 0
