"""Benchmark + artifact for Table 10T: trace-level reuse (DTM) with a 1K 4-way trace table.

The timed section runs the analysis stack that produces this artifact
over a bounded slice of the 'gcc' workload; the artifact itself is
rendered from the shared full-suite results and written to
``benchmarks/results/table10t.txt``.
"""

from repro.traces import TraceReuseAnalyzer

from _bench_utils import render_artifact, simulate_with


def test_table10t_benchmark(benchmark, suite_results):
    def run_analysis():
        analyzers = simulate_with(lambda: [TraceReuseAnalyzer()], "gcc")
        return analyzers[0].report()

    benchmark(run_analysis)
    artifact = render_artifact("table10t", suite_results)
    assert "go" in artifact
