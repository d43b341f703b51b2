"""Trace-level reuse characterization (Table 10T).

Trace-level reuse on top of the paper's instruction-level reuse buffer:
straight-line fragments of the dynamic stream are recorded with their
live-in registers/memory, kept in an associative table, and counted as
covered when a later region start finds a resident trace whose live-ins
hold.  See DESIGN.md §6d.
"""

from repro.traces.analyzer import (
    LENGTH_BUCKET_LABELS,
    TraceReuseAnalyzer,
    TraceReuseReport,
)
from repro.traces.table import (
    DEFAULT_MAX_TRACE_LEN,
    DEFAULT_TRACE_CAPACITY,
    DEFAULT_TRACE_WAYS,
    TraceReuseTable,
)
from repro.traces.template import (
    MIN_TRACE_LEN,
    REASON_OVERLAP,
    REASON_TOO_SHORT,
    REASON_UNTRACKED_STORE,
    RegionTemplate,
)
from repro.traces.trace import CLASS_NAMES, NUM_CLASSES, Trace, class_of

__all__ = [
    "CLASS_NAMES",
    "DEFAULT_MAX_TRACE_LEN",
    "DEFAULT_TRACE_CAPACITY",
    "DEFAULT_TRACE_WAYS",
    "LENGTH_BUCKET_LABELS",
    "MIN_TRACE_LEN",
    "NUM_CLASSES",
    "REASON_OVERLAP",
    "REASON_TOO_SHORT",
    "REASON_UNTRACKED_STORE",
    "RegionTemplate",
    "Trace",
    "TraceReuseAnalyzer",
    "TraceReuseReport",
    "TraceReuseTable",
    "class_of",
]
