"""Ablation: trace reuse table geometry sweep (extends Table 10T).

The trace-level counterpart of ``test_ablation_reuse_geometry.py``:
sweeps capacity, associativity and maximum trace length on gcc.
Results land in ``benchmarks/results/ablation_trace_geometry.txt``.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import format_table
from repro.traces import TraceReuseAnalyzer

from _bench_utils import RESULTS_DIR, simulate_with

TRACE_GEOMETRIES = [
    (256, 4, 16),
    (1024, 4, 8),
    (1024, 4, 16),  # the Table 10T default
    (1024, 8, 16),
    (4096, 4, 16),
]

_rows = {}


def _run_geometry(capacity: int, ways: int, max_len: int):
    (analyzer,) = simulate_with(
        lambda: [TraceReuseAnalyzer(capacity, ways, max_len)], "gcc", limit=25_000
    )
    return analyzer.report()


@pytest.mark.parametrize("capacity,ways,max_len", TRACE_GEOMETRIES)
def test_trace_geometry(benchmark, capacity, ways, max_len):
    report = benchmark(_run_geometry, capacity, ways, max_len)
    _rows[(capacity, ways, max_len)] = (
        report.coverage_pct,
        report.hit_rate_pct,
        report.mean_hit_length,
    )
    assert 0.0 <= report.coverage_pct <= 100.0


def test_trace_geometry_artifact(benchmark):
    rows = [
        (f"{capacity}x{ways}/L{max_len}", coverage, hit_rate, mean_len)
        for (capacity, ways, max_len), (coverage, hit_rate, mean_len) in sorted(
            _rows.items()
        )
    ]
    table = benchmark(
        format_table, ("Geometry", "Coverage %", "Hit rate %", "Mean len"), rows
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "ablation_trace_geometry.txt").write_text(
        "== Ablation: trace reuse table geometry (gcc workload) ==\n" + table + "\n"
    )
    print("\n" + table)
    # Growing capacity at fixed ways/length never reduces coverage.
    series = [
        coverage
        for (capacity, ways, max_len), (coverage, _, _) in sorted(_rows.items())
        if ways == 4 and max_len == 16
    ]
    assert series == sorted(series)
