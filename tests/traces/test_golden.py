"""Table 10T locked to literal reports on every workload.

Each workload runs the trace analyzer alone on the window ``skip=2000,
limit=3000`` under four settings: the default geometry, ``1024x4/L8``,
and the smaller (``256x4/L16``) and wider (``1024x8/L16``) tables of the
trace-geometry ablation. The default and ``1024x4/L8`` values were
produced by the earlier step-by-step trace builder; recording from region
templates must reproduce them field for field. The two ablation settings
pin eviction under set pressure and replacement across more ways, where
m88ksim and ijpeg depart from the default geometry.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.harness import SuiteConfig
from repro.sim import Simulator
from repro.sim.simulator import ENGINES
from repro.traces.analyzer import (
    LENGTH_BUCKET_LABELS,
    TraceReuseAnalyzer,
    TraceReuseReport,
)
from repro.workloads import WORKLOAD_ORDER, get_workload

SKIP = 2_000
LIMIT = 3_000

SETTINGS = {
    "default": {},
    "1024x4/L8": {"capacity": 1024, "ways": 4, "max_trace_len": 8},
    "256x4/L16": {"capacity": 256, "ways": 4, "max_trace_len": 16},
    "1024x8/L16": {"capacity": 1024, "ways": 8, "max_trace_len": 16},
}

#: The report fields, in the order of the tuples in GOLDEN.
FIELDS = tuple(field.name for field in dataclasses.fields(TraceReuseReport))

# fmt: off
GOLDEN = {
    'go': {
        'default': (3000, 265, 0, 265, 0, 264, (), 0, 252, 12, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2992, 16),
        '1024x4/L8': (3000, 441, 0, 441, 0, 441, (), 0, 421, 20, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 3000, 8),
        '256x4/L16': (3000, 265, 0, 265, 0, 264, (), 0, 252, 12, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2992, 16),
        '1024x8/L16': (3000, 265, 0, 265, 0, 264, (), 0, 240, 24, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2992, 16),
    },
    'm88ksim': {
        'default': (3000, 444, 68, 376, 229, 354, (('too-short', 21),), 94, 141, 119, (0, 34, 17, 12, 5, 0), (147, 14, 5, 63, 0, 0), 2447, 16),
        '1024x4/L8': (3000, 551, 69, 482, 229, 424, (('too-short', 57),), 95, 199, 130, (0, 34, 17, 13, 5, 0), (149, 15, 6, 59, 0, 0), 2419, 8),
        '256x4/L16': (3000, 444, 46, 398, 148, 376, (('too-short', 21),), 93, 184, 99, (0, 27, 8, 9, 2, 0), (91, 11, 3, 43, 0, 0), 2528, 16),
        '1024x8/L16': (3000, 444, 124, 320, 564, 298, (('too-short', 21),), 96, 38, 164, (0, 34, 26, 32, 32, 0), (419, 21, 45, 79, 0, 0), 2112, 16),
    },
    'ijpeg': {
        'default': (3000, 413, 0, 413, 0, 412, (), 0, 391, 21, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2999, 12),
        '1024x4/L8': (3000, 633, 0, 633, 0, 440, (('too-short', 192),), 0, 415, 25, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2807, 8),
        '256x4/L16': (3000, 413, 0, 413, 0, 412, (), 0, 391, 21, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2999, 12),
        '1024x8/L16': (3000, 413, 237, 176, 1601, 176, (), 0, 135, 41, (0, 0, 0, 133, 104, 0), (1364, 0, 0, 237, 0, 0), 1403, 12),
    },
    'perl': {
        'default': (3000, 396, 12, 384, 29, 368, (('too-short', 15),), 3, 283, 82, (0, 10, 0, 2, 0, 0), (17, 0, 0, 12, 0, 0), 2935, 16),
        '1024x4/L8': (3000, 567, 17, 550, 39, 531, (('too-short', 18),), 3, 422, 106, (0, 15, 0, 2, 0, 0), (22, 0, 0, 17, 0, 0), 2922, 8),
        '256x4/L16': (3000, 396, 12, 384, 29, 368, (('too-short', 15),), 3, 290, 75, (0, 10, 0, 2, 0, 0), (17, 0, 0, 12, 0, 0), 2935, 16),
        '1024x8/L16': (3000, 396, 12, 384, 29, 368, (('too-short', 15),), 3, 251, 114, (0, 10, 0, 2, 0, 0), (17, 0, 0, 12, 0, 0), 2935, 16),
    },
    'vortex': {
        'default': (3000, 375, 0, 375, 0, 374, (), 0, 366, 8, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2992, 12),
        '1024x4/L8': (3000, 562, 0, 562, 0, 562, (), 0, 550, 12, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 3000, 8),
        '256x4/L16': (3000, 375, 0, 375, 0, 374, (), 0, 366, 8, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2992, 12),
        '1024x8/L16': (3000, 375, 0, 375, 0, 374, (), 0, 358, 16, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2992, 12),
    },
    'li': {
        'default': (3000, 448, 0, 448, 0, 446, (('too-short', 1),), 71, 308, 67, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2729, 16),
        '1024x4/L8': (3000, 556, 0, 556, 0, 506, (('too-short', 49),), 71, 359, 76, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2681, 8),
        '256x4/L16': (3000, 448, 0, 448, 0, 446, (('too-short', 1),), 71, 308, 67, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2729, 16),
        '1024x8/L16': (3000, 448, 0, 448, 0, 446, (('too-short', 1),), 71, 244, 131, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2729, 16),
    },
    'gcc': {
        'default': (3000, 353, 67, 286, 326, 277, (('too-short', 9),), 70, 151, 56, (0, 36, 0, 22, 0, 9), (261, 18, 9, 38, 0, 0), 2563, 16),
        '1024x4/L8': (3000, 501, 71, 430, 208, 412, (('too-short', 18),), 80, 248, 84, (0, 49, 0, 22, 0, 0), (157, 0, 0, 51, 0, 0), 2672, 8),
        '256x4/L16': (3000, 353, 67, 286, 326, 277, (('too-short', 9),), 70, 156, 51, (0, 36, 0, 22, 0, 9), (261, 18, 9, 38, 0, 0), 2563, 16),
        '1024x8/L16': (3000, 353, 67, 286, 326, 277, (('too-short', 9),), 70, 122, 85, (0, 36, 0, 22, 0, 9), (261, 18, 9, 38, 0, 0), 2563, 16),
    },
    'compress': {
        'default': (3000, 376, 0, 376, 0, 375, (), 0, 366, 9, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2999, 12),
        '1024x4/L8': (3000, 563, 0, 563, 0, 562, (), 0, 549, 13, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2999, 8),
        '256x4/L16': (3000, 376, 0, 376, 0, 375, (), 0, 366, 9, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2999, 12),
        '1024x8/L16': (3000, 376, 0, 376, 0, 375, (), 0, 358, 17, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2999, 12),
    },
}
# fmt: on


def _summary(report: TraceReuseReport) -> tuple:
    values = []
    for name in FIELDS:
        value = getattr(report, name)
        if name == "rejections":
            value = tuple(sorted(value.items()))
        elif name == "hit_length_hist":
            value = tuple(value[label] for label in LENGTH_BUCKET_LABELS)
        values.append(value)
    return tuple(values)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("name", WORKLOAD_ORDER)
def test_report_matches_golden(name, setting, engine):
    workload = get_workload(name)
    analyzer = TraceReuseAnalyzer(**SETTINGS[setting])
    Simulator(
        workload.program(),
        input_data=SuiteConfig().input_for(workload),
        analyzers=[analyzer],
        engine=engine,
    ).run(limit=LIMIT, skip=SKIP)
    assert _summary(analyzer.report()) == GOLDEN[name][setting]
