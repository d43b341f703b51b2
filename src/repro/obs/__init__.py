"""Observability: metrics registry, span tracing, profiling, manifests.

Three pillars, all opt-in and all near-zero-cost while disabled:

* :mod:`repro.obs.metrics` — process-global counters / gauges / timers
  fed by the simulator, the result cache, the reuse buffer, and the
  parallel runner; snapshots merge across worker processes.
* :mod:`repro.obs.tracing` — nested phase spans (assemble → warm-up →
  simulate → per-analyzer report) emitted as Chrome trace-event JSON
  for ``chrome://tracing`` / Perfetto.
* :mod:`repro.obs.profiling` + :mod:`repro.obs.manifest` — per-analyzer
  hook timing and provenance manifests attached to every result.
"""

from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    build_suite_manifest,
    build_workload_manifest,
    write_manifest,
)
from repro.obs.metrics import REGISTRY, MetricsRegistry, disable, enable
from repro.obs.profiling import AnalyzerProfile, format_profile_table, instrument
from repro.obs.tracing import SpanTracer, current_tracer, install_tracer, span

__all__ = [
    "AnalyzerProfile",
    "MANIFEST_SCHEMA",
    "MetricsRegistry",
    "REGISTRY",
    "RunManifest",
    "SpanTracer",
    "build_suite_manifest",
    "build_workload_manifest",
    "current_tracer",
    "disable",
    "enable",
    "format_profile_table",
    "install_tracer",
    "instrument",
    "span",
    "write_manifest",
]
