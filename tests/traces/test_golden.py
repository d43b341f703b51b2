"""Table 10T locked to literal reports on every workload.

Each workload runs the trace analyzer alone on the window ``skip=2000,
limit=3000`` under four settings: the default policy, the strict
implicit-input policy, ``min_len=4`` and the ``1024x4/L8`` geometry.
The expected values were produced by the earlier step-by-step trace
builder; recording from region templates must reproduce them field for
field.
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
from repro.traces.safety import SafetyPolicy
from repro.workloads import WORKLOAD_ORDER, get_workload

SKIP = 2_000
LIMIT = 3_000

SETTINGS = {
    "default": {},
    "strict": {"policy": SafetyPolicy(allow_memory_live_ins=False)},
    "min_len_4": {"policy": SafetyPolicy(min_len=4)},
    "1024x4/L8": {"capacity": 1024, "ways": 4, "max_trace_len": 8},
}

#: The report fields, in the order of the tuples in GOLDEN.
FIELDS = tuple(field.name for field in dataclasses.fields(TraceReuseReport))

# fmt: off
GOLDEN = {
    'go': {
        'default': (3000, 265, 0, 265, 0, 264, (), 0, 252, 12, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2992, 16),
        'strict': (3000, 265, 0, 265, 0, 264, (), 0, 252, 12, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2992, 16),
        'min_len_4': (3000, 265, 0, 265, 0, 264, (), 0, 252, 12, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2992, 16),
        '1024x4/L8': (3000, 441, 0, 441, 0, 441, (), 0, 421, 20, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 3000, 8),
    },
    'm88ksim': {
        'default': (3000, 444, 68, 376, 229, 354, (('too-short', 21),), 94, 141, 119, (0, 34, 17, 12, 5, 0), (147, 14, 5, 63, 0, 0), 2447, 16),
        'strict': (3000, 444, 54, 390, 173, 257, (('implicit-input', 111), ('too-short', 21)), 69, 87, 101, (0, 24, 17, 12, 1, 0), (119, 0, 5, 49, 0, 0), 1199, 9),
        'min_len_4': (3000, 444, 17, 427, 110, 247, (('too-short', 179),), 47, 120, 80, (0, 0, 0, 12, 5, 0), (88, 4, 5, 13, 0, 0), 2154, 16),
        '1024x4/L8': (3000, 551, 69, 482, 229, 424, (('too-short', 57),), 95, 199, 130, (0, 34, 17, 13, 5, 0), (149, 15, 6, 59, 0, 0), 2419, 8),
    },
    'ijpeg': {
        'default': (3000, 413, 0, 413, 0, 412, (), 0, 391, 21, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2999, 12),
        'strict': (3000, 413, 0, 413, 0, 412, (), 0, 391, 21, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2999, 12),
        'min_len_4': (3000, 413, 0, 413, 0, 412, (), 0, 391, 21, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2999, 12),
        '1024x4/L8': (3000, 633, 0, 633, 0, 440, (('too-short', 192),), 0, 415, 25, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2807, 8),
    },
    'perl': {
        'default': (3000, 396, 12, 384, 29, 368, (('too-short', 15),), 3, 283, 82, (0, 10, 0, 2, 0, 0), (17, 0, 0, 12, 0, 0), 2935, 16),
        'strict': (3000, 396, 12, 384, 29, 188, (('implicit-input', 180), ('too-short', 15)), 3, 141, 44, (0, 10, 0, 2, 0, 0), (17, 0, 0, 12, 0, 0), 794, 11),
        'min_len_4': (3000, 396, 2, 394, 9, 349, (('too-short', 44),), 1, 279, 69, (0, 0, 0, 2, 0, 0), (7, 0, 0, 2, 0, 0), 2889, 16),
        '1024x4/L8': (3000, 567, 17, 550, 39, 531, (('too-short', 18),), 3, 422, 106, (0, 15, 0, 2, 0, 0), (22, 0, 0, 17, 0, 0), 2922, 8),
    },
    'vortex': {
        'default': (3000, 375, 0, 375, 0, 374, (), 0, 366, 8, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2992, 12),
        'strict': (3000, 375, 0, 375, 0, 187, (('implicit-input', 187),), 0, 183, 4, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 748, 4),
        'min_len_4': (3000, 375, 0, 375, 0, 374, (), 0, 366, 8, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2992, 12),
        '1024x4/L8': (3000, 562, 0, 562, 0, 562, (), 0, 550, 12, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 3000, 8),
    },
    'li': {
        'default': (3000, 448, 0, 448, 0, 446, (('too-short', 1),), 71, 308, 67, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2729, 16),
        'strict': (3000, 448, 0, 448, 0, 296, (('implicit-input', 150), ('too-short', 1)), 24, 224, 48, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 1246, 9),
        'min_len_4': (3000, 448, 0, 448, 0, 316, (('too-short', 131),), 48, 222, 46, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2420, 16),
        '1024x4/L8': (3000, 556, 0, 556, 0, 506, (('too-short', 49),), 71, 359, 76, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2681, 8),
    },
    'gcc': {
        'default': (3000, 353, 67, 286, 326, 277, (('too-short', 9),), 70, 151, 56, (0, 36, 0, 22, 0, 9), (261, 18, 9, 38, 0, 0), 2563, 16),
        'strict': (3000, 353, 58, 295, 182, 147, (('implicit-input', 139), ('too-short', 9)), 9, 107, 31, (0, 36, 0, 22, 0, 0), (144, 0, 0, 38, 0, 0), 774, 10),
        'min_len_4': (3000, 353, 31, 322, 254, 274, (('too-short', 48),), 70, 151, 53, (0, 0, 0, 22, 0, 9), (205, 18, 9, 22, 0, 0), 2557, 16),
        '1024x4/L8': (3000, 501, 71, 430, 208, 412, (('too-short', 18),), 80, 248, 84, (0, 49, 0, 22, 0, 0), (157, 0, 0, 51, 0, 0), 2672, 8),
    },
    'compress': {
        'default': (3000, 376, 0, 376, 0, 375, (), 0, 366, 9, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2999, 12),
        'strict': (3000, 376, 0, 376, 0, 375, (), 0, 366, 9, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2999, 12),
        'min_len_4': (3000, 376, 0, 376, 0, 375, (), 0, 366, 9, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2999, 12),
        '1024x4/L8': (3000, 563, 0, 563, 0, 562, (), 0, 549, 13, (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), 2999, 8),
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
