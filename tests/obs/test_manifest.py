"""Run-manifest tests: provenance fields, aggregation, serialization."""

from __future__ import annotations

import dataclasses
import json
import pickle

from repro import __version__
from repro.harness.runner import SuiteConfig
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    build_suite_manifest,
    build_workload_manifest,
    write_manifest,
)


class _FakeResult:
    def __init__(self, manifest):
        self.manifest = manifest


def _manifest(name="compress", **config_kwargs):
    config = SuiteConfig(**config_kwargs)
    return build_workload_manifest(name, config, "digest123", {"total": 1.5})


class TestWorkloadManifest:
    def test_records_engine_config_digest_and_timing(self):
        manifest = _manifest(engine="interpreter", scale=2)
        assert manifest.engine == "interpreter"
        assert manifest.config["scale"] == 2
        assert manifest.source_digest == "digest123"
        assert manifest.cache == "computed"
        assert manifest.timing == {"total": 1.5}
        assert manifest.package_version == __version__
        assert manifest.schema == MANIFEST_SCHEMA

    def test_to_dict_is_json_serializable(self):
        assert json.loads(json.dumps(_manifest().to_dict()))["workload"] == "compress"

    def test_pickles_with_cached_results(self):
        manifest = _manifest()
        assert pickle.loads(pickle.dumps(manifest)).to_dict() == manifest.to_dict()

    def test_schema_4_fields(self):
        assert MANIFEST_SCHEMA == 4
        assert [field.name for field in dataclasses.fields(RunManifest)] == [
            "workload",
            "engine",
            "config",
            "source_digest",
            "cache",
            "timing",
            "package_version",
            "schema",
            "attempts",
            "failures",
            "analysis_processes",
            "split_timing",
        ]

    def test_records_analysis_processes(self):
        single = _manifest()
        assert single.analysis_processes == 1
        assert single.split_timing == {}
        split_timing = {"simulate": 0.8, "report": 0.01, "wait": 0.1}
        split = build_workload_manifest(
            "compress", SuiteConfig(), "digest123", {"total": 1.0}, split_timing=split_timing
        )
        assert split.analysis_processes == 2
        assert split.to_dict()["split_timing"] == split_timing


class TestSuiteManifest:
    def test_aggregates_dispositions(self):
        computed = _manifest("compress")
        hit = _manifest("go")
        hit.cache = "disk-hit"
        suite = build_suite_manifest(
            SuiteConfig(),
            {"compress": _FakeResult(computed), "go": _FakeResult(hit)},
            "digest123",
            timing={"simulate": 2.0},
            elapsed_seconds=3.0,
        )
        assert suite["cache_dispositions"] == {"computed": 1, "disk-hit": 1}
        assert suite["workloads"]["go"]["cache"] == "disk-hit"
        assert suite["engine"] == SuiteConfig().engine
        assert suite["elapsed_seconds"] == 3.0
        assert suite["timing"] == {"simulate": 2.0}

    def test_results_without_manifest_are_unknown(self):
        suite = build_suite_manifest(
            SuiteConfig(), {"gcc": _FakeResult(None)}, "digest123"
        )
        assert suite["cache_dispositions"] == {"unknown": 1}
        assert suite["workloads"]["gcc"]["cache"] == "unknown"

    def test_write_manifest_emits_json_file(self, tmp_path):
        suite = build_suite_manifest(SuiteConfig(), {}, "digest123")
        path = tmp_path / "suite.manifest.json"
        write_manifest(suite, str(path))
        loaded = json.loads(path.read_text())
        assert loaded["kind"] == "suite"
        assert loaded["schema"] == MANIFEST_SCHEMA
        assert loaded["source_digest"] == "digest123"
