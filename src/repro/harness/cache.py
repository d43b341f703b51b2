"""Persistent on-disk cache for :class:`WorkloadResult` reports.

One simulated run per (workload, configuration) feeds every table and
figure, so results are worth keeping across *processes*, not just within
one (the in-memory layer in :mod:`repro.harness.runner` only helps the
latter).  Entries are pickled to ``<cache-dir>/<key>.pkl`` where the key
is a SHA-256 over:

* a cache format version (bumped when the pickled layout changes),
* the workload name,
* the full ``repr`` of the :class:`SuiteConfig` (every knob, including
  the execution engine, participates — distinct configs cannot collide),
* a digest of the ``repro`` source tree, so any code change invalidates
  every stale entry automatically.

Writes are atomic (temp file + ``os.replace``), so concurrent suite
runs — including the forked children of ``run_suite(jobs=N)`` — can
share one directory safely.

:meth:`ResultCache.load` reads an entry's bytes in one call and unpickles
them with the cyclic garbage collector paused.  A result unpickles into
thousands of fresh containers (such as the function analysis's
per-function argument sets), and their allocation would otherwise
trigger collections that free nothing: none of the new objects is
garbage yet.  The collector is re-enabled afterwards only if it was on,
so a caller that turned it off keeps it off.
"""

from __future__ import annotations

import gc
import hashlib
import logging
import os
import pickle
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Optional

from repro.harness import faults as _faults
from repro.obs import metrics as obs_metrics

logger = logging.getLogger("repro.harness.cache")

#: Bump when WorkloadResult / report layouts change incompatibly.
#: v2: WorkloadResult carries a RunManifest; ReuseBufferReport gained
#: eviction/occupancy telemetry fields.
#: v3: WorkloadResult gained the trace_reuse report (Table 10T) and
#: SuiteConfig the trace-table geometry knobs.
#: v4: RunManifest gained recovery provenance (degraded / attempts /
#: failures) and SuiteConfig the fault_plan knob — degraded or faulted
#: results must never be served against pre-recovery keys.
CACHE_FORMAT_VERSION = 4

#: Environment variable that opts experiment runs into disk caching.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


@lru_cache(maxsize=1)
def source_digest() -> str:
    """SHA-256 over the ``repro`` package sources (code + MiniC inputs)."""
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts:
            continue
        if path.suffix == ".pyc":
            continue
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


class ResultCache:
    """Content-addressed pickle store for workload results."""

    def __init__(self, directory: os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def key_for(self, workload_name: str, config: object) -> str:
        payload = "\n".join(
            (
                str(CACHE_FORMAT_VERSION),
                workload_name,
                repr(config),
                source_digest(),
            )
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def path_for(self, workload_name: str, config: object) -> Path:
        return self.directory / f"{self.key_for(workload_name, config)}.pkl"

    def load(self, workload_name: str, config: object) -> Optional[object]:
        """The cached result, or ``None`` on miss / unreadable entry."""
        registry = obs_metrics.REGISTRY
        path = self.path_for(workload_name, config)
        try:
            data = path.read_bytes()
            was_enabled = gc.isenabled()
            gc.disable()
            try:
                result = pickle.loads(data)
            finally:
                if was_enabled:
                    gc.enable()
        except FileNotFoundError:
            registry.inc("cache.disk.misses")
            return None
        except Exception as exc:
            # A torn, corrupt, or stale entry is a miss, never an error —
            # unpickling garbage can raise nearly anything (ValueError,
            # UnpicklingError, EOFError, AttributeError, ImportError, ...).
            # It is counted and evicted, not silently swallowed: leaving
            # the bad file in place would re-pay the failed read forever.
            registry.inc("cache.disk.misses")
            registry.inc("cache.disk.corrupt")
            logger.warning(
                "evicting corrupt result-cache entry %s (%s: %s)",
                path.name,
                type(exc).__name__,
                exc,
            )
            try:
                path.unlink()
            except OSError:
                pass
            return None
        registry.inc("cache.disk.hits")
        registry.inc("cache.disk.bytes_read", len(data))
        return result

    def store(self, workload_name: str, config: object, result: object) -> None:
        """Atomically persist ``result`` (temp file + ``os.replace``).

        A writer killed at any point — including via the
        ``cache.torn_write`` fault site, which aborts after the pickle
        but before the rename — leaves either the previous entry or no
        entry, never a torn one.
        """
        path = self.path_for(workload_name, config)
        fd, tmp_name = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
                written = handle.tell()
                if _faults.armed():
                    _faults.check("cache.torn_write", workload_name)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
            registry = obs_metrics.REGISTRY
            registry.inc("cache.disk.stores")
            registry.inc("cache.disk.bytes_written", written)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        if _faults.armed() and _faults.should_fire("cache.corrupt", workload_name):
            # Simulate on-disk rot: scribble over the committed entry so
            # the next load takes the corrupt-eviction path.
            data = path.read_bytes()
            path.write_bytes(data[: max(1, len(data) // 2)] + b"\xde\xad")

    def clear(self) -> None:
        """Remove every cached entry (leaves the directory in place)."""
        for path in self.directory.glob("*.pkl"):
            try:
                path.unlink()
            except OSError:
                pass


def default_cache_dir() -> Optional[str]:
    """Directory from ``$REPRO_CACHE_DIR``, or ``None`` (caching off)."""
    value = os.environ.get(CACHE_DIR_ENV)
    return value or None
