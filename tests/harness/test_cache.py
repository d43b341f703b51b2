"""Tests for the persistent result cache and the parallel suite runner."""

from __future__ import annotations

import gc
import pickle

import pytest

from repro.harness import runner
from repro.harness.cache import CACHE_FORMAT_VERSION, ResultCache, source_digest
from repro.harness.runner import (
    SuiteConfig,
    WorkloadResult,
    cache_directory,
    clear_cache,
    run_suite,
    run_workload,
    set_cache_dir,
)
from repro.obs import metrics as obs_metrics
from repro.workloads import Workload, get_workload

_SMALL = {"limit_instructions": 3_000}


@pytest.fixture
def isolated_cache(tmp_path):
    """Point the disk layer at a temp dir; restore module state after."""
    saved_memory = dict(runner._CACHE)
    directory = tmp_path / "result-cache"
    set_cache_dir(str(directory))
    try:
        yield directory
    finally:
        set_cache_dir(None)
        runner._CACHE.clear()
        runner._CACHE.update(saved_memory)


@pytest.fixture
def no_disk_cache():
    """Force the disk layer off regardless of environment."""
    set_cache_dir(None)
    try:
        yield
    finally:
        set_cache_dir(None)


class TestCacheKeying:
    def test_distinct_configs_do_not_collide(self, tmp_path):
        cache = ResultCache(tmp_path)
        variants = [
            SuiteConfig(),
            SuiteConfig(scale=2),
            SuiteConfig(buffer_capacity=100),
            SuiteConfig(reuse_entries=1024),
            SuiteConfig(reuse_associativity=1),
            SuiteConfig(skip_instructions=10),
            SuiteConfig(limit_instructions=10),
            SuiteConfig(input_kind="secondary"),
            SuiteConfig(engine="interpreter"),
        ]
        keys = {cache.key_for("go", config) for config in variants}
        assert len(keys) == len(variants)

    def test_distinct_workloads_do_not_collide(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = SuiteConfig()
        assert cache.key_for("go", config) != cache.key_for("gcc", config)

    def test_key_depends_on_format_version_and_sources(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("go", SuiteConfig())
        assert key == cache.key_for("go", SuiteConfig())  # deterministic
        assert str(CACHE_FORMAT_VERSION)  # version participates in payload
        assert len(source_digest()) == 64

    def test_previous_format_version_reads_as_miss(self, tmp_path, monkeypatch):
        # An entry written under format v4 (manifests with the two
        # engine-fallback fields) must be invisible to the current
        # version, not an unpickling error.
        from repro.harness import cache as cache_module

        cache = ResultCache(tmp_path)
        config = SuiteConfig()
        monkeypatch.setattr(cache_module, "CACHE_FORMAT_VERSION", 4)
        cache.store("go", config, {"legacy": True})
        assert cache.load("go", config) == {"legacy": True}
        monkeypatch.undo()
        assert CACHE_FORMAT_VERSION == 5
        assert cache.load("go", config) is None

    def test_missing_and_corrupt_entries_are_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = SuiteConfig()
        assert cache.load("go", config) is None
        # Binary garbage (UnpicklingError) and text garbage (the protocol-0
        # parser raises ValueError) must both read as misses.
        cache.path_for("go", config).write_bytes(b"not a pickle")
        assert cache.load("go", config) is None
        cache.path_for("go", config).write_bytes(b"garbage\n")
        assert cache.load("go", config) is None
        cache.path_for("go", config).write_bytes(b"")
        assert cache.load("go", config) is None


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def gc_state(request):
    """Run with the cyclic collector on or off; restore it after."""
    before = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    try:
        yield request.param
    finally:
        if before:
            gc.enable()
        else:
            gc.disable()


class TestDiskReads:
    def test_hit_leaves_gc_state_unchanged(self, tmp_path, gc_state):
        cache = ResultCache(tmp_path)
        config = SuiteConfig()
        cache.store("go", config, {"sets": [{1, 2}, {3}]})
        assert cache.load("go", config) == {"sets": [{1, 2}, {3}]}
        assert gc.isenabled() is gc_state

    def test_corrupt_eviction_leaves_gc_state_unchanged(self, tmp_path, gc_state):
        cache = ResultCache(tmp_path)
        config = SuiteConfig()
        path = cache.path_for("go", config)
        path.write_bytes(b"not a pickle")
        assert cache.load("go", config) is None
        assert not path.exists()
        assert gc.isenabled() is gc_state

    def test_bytes_read_equals_entry_size(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = SuiteConfig()
        cache.store("go", config, {"payload": list(range(1000))})
        obs_metrics.enable()
        obs_metrics.REGISTRY.reset()
        try:
            cache.load("go", config)
            bytes_read = obs_metrics.REGISTRY.value("cache.disk.bytes_read")
        finally:
            obs_metrics.disable()
            obs_metrics.REGISTRY.reset()
        assert bytes_read == cache.path_for("go", config).stat().st_size > 0


class TestDiskLayer:
    def test_round_trip_across_cache_instances(self, isolated_cache):
        config = SuiteConfig(**_SMALL)
        clear_cache()
        result = run_workload(get_workload("compress"), config)
        # A fresh ResultCache over the same directory (≈ a new process).
        fresh = ResultCache(isolated_cache)
        loaded = fresh.load("compress", config)
        assert isinstance(loaded, WorkloadResult)
        assert loaded.run == result.run
        assert loaded.repetition == result.repetition

    def test_disk_hit_skips_simulation_and_promotes(self, isolated_cache):
        config = SuiteConfig(**_SMALL)
        clear_cache()
        first = run_workload(get_workload("compress"), config)
        runner._CACHE.clear()  # drop memory layer; disk remains
        warm = run_workload(get_workload("compress"), config)
        assert warm is not first  # came from disk, not memory
        assert warm.run == first.run
        assert run_workload(get_workload("compress"), config) is warm  # promoted

    def test_clear_cache_invalidates_disk_layer(self, isolated_cache):
        config = SuiteConfig(**_SMALL)
        clear_cache()
        run_workload(get_workload("compress"), config)
        assert list(isolated_cache.glob("*.pkl"))
        clear_cache()
        assert not list(isolated_cache.glob("*.pkl"))
        assert not runner._CACHE

    def test_cache_directory_reporting(self, isolated_cache):
        assert cache_directory() == str(isolated_cache)
        set_cache_dir(None)
        assert cache_directory() is None

    def test_cache_directory_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(runner, "_DISK_CACHE", None)
        monkeypatch.setattr(runner, "_DISK_RESOLVED", False)
        assert cache_directory() == str(tmp_path)


class TestWorkloadPickling:
    def test_workload_reduces_to_registry_lookup(self):
        workload = get_workload("vortex")
        clone = pickle.loads(pickle.dumps(workload))
        assert clone is workload  # registry returns the singleton

    def test_workload_result_is_picklable(self, no_disk_cache):
        config = SuiteConfig(**_SMALL)
        result = run_workload(get_workload("compress"), config)
        clone = pickle.loads(pickle.dumps(result))
        assert isinstance(clone.workload, Workload)
        assert clone.run == result.run
        assert clone.repetition == result.repetition


class TestParallelSuite:
    def test_parallel_matches_serial(self, no_disk_cache):
        config = SuiteConfig(**_SMALL)
        names = ("go", "compress", "li")
        clear_cache()
        serial = {n: run_workload(get_workload(n), config) for n in names}
        clear_cache()
        parallel = run_suite(config, names, jobs=2)
        assert tuple(parallel) == names
        for name in names:
            assert parallel[name].run == serial[name].run
            assert parallel[name].repetition == serial[name].repetition
            assert parallel[name].reuse == serial[name].reuse

    def test_parallel_serves_cached_results_without_workers(self, no_disk_cache):
        config = SuiteConfig(**_SMALL)
        clear_cache()
        first = run_workload(get_workload("go"), config)
        results = run_suite(config, ("go",), jobs=2)
        assert results["go"] is first  # memory hit, no child forked

    def test_run_suite_jobs_parameter(self, no_disk_cache):
        config = SuiteConfig(**_SMALL)
        clear_cache()
        results = run_suite(config, ("compress", "li"), jobs=2)
        assert tuple(results) == ("compress", "li")
        clear_cache()
        serial = run_suite(config, ("compress", "li"))
        for name in serial:
            assert results[name].run == serial[name].run

    def test_parallel_workers_share_disk_cache(self, isolated_cache):
        config = SuiteConfig(**_SMALL)
        clear_cache()
        run_suite(config, ("compress",), jobs=2)
        # The child process wrote its entry into the shared directory.
        fresh = ResultCache(isolated_cache)
        assert fresh.load("compress", config) is not None
