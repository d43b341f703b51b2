"""Run manifests: provenance records for workload results and suites.

A :class:`RunManifest` answers "where did this number come from?" for a
:class:`~repro.harness.runner.WorkloadResult`: which engine executed
it, under which :class:`~repro.harness.runner.SuiteConfig`, over which
source tree (digest), whether it was simulated or served from a cache
layer, by which package version, and how long each phase took.  The
suite-level manifest (:func:`build_suite_manifest`) aggregates the
per-workload records and is serialized as JSON next to any ``--out``
artifact the CLI writes (and embedded in ``--metrics-out``).

Manifests are plain dataclasses of primitives so they pickle with the
result into the persistent cache; a cache hit updates only the
``cache`` disposition field (``computed`` → ``memory-hit`` /
``disk-hit``), preserving the original timing of the simulation that
produced the numbers.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Manifest schema version (bump on incompatible layout changes).
#: v2: recovery provenance (attempts / failures, and two fields for an
#: engine fallback) for fault-tolerant suite runs.
#: v3: analysis processes (analysis_processes / split_timing).
#: v4: the engine-fallback fields removed with the fallback.
MANIFEST_SCHEMA = 4

#: Cache dispositions a result can carry.
DISPOSITIONS = ("computed", "memory-hit", "disk-hit")


def _package_version() -> str:
    from repro import __version__

    return __version__


def config_dict(config) -> Dict[str, object]:
    """A SuiteConfig (or any dataclass) as a JSON-ready dict."""
    return dataclasses.asdict(config)


@dataclass
class RunManifest:
    """Provenance for one WorkloadResult."""

    workload: str
    engine: str
    config: Dict[str, object]
    source_digest: str
    #: How this result reached the caller: computed / memory-hit / disk-hit.
    cache: str = "computed"
    #: Phase seconds measured when the result was simulated.
    timing: Dict[str, float] = field(default_factory=dict)
    package_version: str = field(default_factory=_package_version)
    schema: int = MANIFEST_SCHEMA
    #: How many attempts the recovery loop made to produce this result.
    attempts: int = 1
    #: FailureRecord dicts for the failed attempts that preceded it.
    failures: List[dict] = field(default_factory=list)
    #: 2 when the analyzers were split over a forked child, else 1.
    analysis_processes: int = 1
    #: For a split run: the child's ``simulate`` and ``report`` seconds
    #: and the parent's ``wait`` for the child's result.
    split_timing: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def build_workload_manifest(
    workload_name: str,
    config,
    source_digest: str,
    timing: Optional[Dict[str, float]] = None,
    split_timing: Optional[Dict[str, float]] = None,
) -> RunManifest:
    """Manifest for a freshly simulated workload result.

    ``split_timing`` (child and wait seconds) marks a two-process run.
    """
    return RunManifest(
        workload=workload_name,
        engine=getattr(config, "engine", "unknown"),
        config=config_dict(config),
        source_digest=source_digest,
        cache="computed",
        timing=dict(timing or {}),
        analysis_processes=1 if split_timing is None else 2,
        split_timing=dict(split_timing or {}),
    )


def build_suite_manifest(
    config,
    results,
    source_digest: str,
    timing: Optional[Dict[str, float]] = None,
    elapsed_seconds: Optional[float] = None,
    failures: Optional[Dict[str, object]] = None,
) -> dict:
    """Aggregate manifest for a whole suite run (JSON-ready dict).

    ``failures`` maps workload name -> terminal FailureRecord (or its
    dict form) for non-strict runs that completed partially.
    """
    workloads: Dict[str, dict] = {}
    dispositions: Dict[str, int] = {}
    for name, result in results.items():
        manifest = getattr(result, "manifest", None)
        if manifest is not None:
            workloads[name] = manifest.to_dict()
            dispositions[manifest.cache] = dispositions.get(manifest.cache, 0) + 1
        else:  # pre-telemetry cache entries carry no manifest
            workloads[name] = {"workload": name, "cache": "unknown"}
            dispositions["unknown"] = dispositions.get("unknown", 0) + 1
    failure_dicts: Dict[str, dict] = {}
    for name, record in (failures or {}).items():
        failure_dicts[name] = (
            record.to_dict() if hasattr(record, "to_dict") else dict(record)
        )
    return {
        "schema": MANIFEST_SCHEMA,
        "kind": "suite",
        "created_unix": time.time(),
        "package_version": _package_version(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "engine": getattr(config, "engine", "unknown"),
        "config": config_dict(config),
        "source_digest": source_digest,
        "cache_dispositions": dispositions,
        "timing": dict(timing or {}),
        "elapsed_seconds": elapsed_seconds,
        "workloads": workloads,
        "failures": failure_dicts,
        "partial": bool(failure_dicts),
    }


def write_manifest(manifest: dict, path: str) -> None:
    """Serialize a suite manifest as JSON."""
    with open(path, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
