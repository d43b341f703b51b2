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
from repro.traces.safety import (
    DEFAULT_MIN_TRACE_LEN,
    REASON_IMPLICIT_INPUT,
    REASON_OVERLAP,
    REASON_TOO_LONG,
    REASON_TOO_SHORT,
    REASON_UNTRACKED_STORE,
    SafetyPolicy,
    check_candidate,
)
from repro.traces.table import (
    DEFAULT_MAX_TRACE_LEN,
    DEFAULT_TRACE_CAPACITY,
    DEFAULT_TRACE_WAYS,
    TraceReuseTable,
)
from repro.traces.template import RegionTemplate
from repro.traces.trace import (
    CLASS_NAMES,
    NUM_CLASSES,
    Trace,
    boundary_kind,
    class_of,
)

__all__ = [
    "CLASS_NAMES",
    "DEFAULT_MAX_TRACE_LEN",
    "DEFAULT_MIN_TRACE_LEN",
    "DEFAULT_TRACE_CAPACITY",
    "DEFAULT_TRACE_WAYS",
    "LENGTH_BUCKET_LABELS",
    "NUM_CLASSES",
    "REASON_IMPLICIT_INPUT",
    "REASON_OVERLAP",
    "REASON_TOO_LONG",
    "REASON_TOO_SHORT",
    "REASON_UNTRACKED_STORE",
    "RegionTemplate",
    "SafetyPolicy",
    "Trace",
    "TraceReuseAnalyzer",
    "TraceReuseReport",
    "TraceReuseTable",
    "boundary_kind",
    "check_candidate",
    "class_of",
]
