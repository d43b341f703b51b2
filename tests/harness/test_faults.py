"""Tests for the deterministic fault-injection harness."""

from __future__ import annotations

import pickle

import pytest

from repro.asm.errors import AsmError
from repro.harness import faults
from repro.harness.cache import ResultCache
from repro.harness.faults import (
    SITES,
    FaultInjected,
    FaultPlan,
    FaultSpec,
)
from repro.harness.runner import SuiteConfig
from repro.obs import metrics as obs_metrics
from repro.sim.errors import SimError


@pytest.fixture(autouse=True)
def disarmed():
    """Every test starts and ends with no plan installed."""
    faults.install_plan(None)
    try:
        yield
    finally:
        faults.install_plan(None)


class TestSpecGrammar:
    def test_bare_site(self):
        spec = FaultSpec.parse("worker.crash")
        assert spec.site == "worker.crash"
        assert spec.workload == "*" and spec.attempt is None
        assert spec.times == 1

    def test_workload_and_attempt(self):
        spec = FaultSpec.parse("worker.crash:go@2")
        assert spec.workload == "go" and spec.attempt == 2

    def test_times_bounds(self):
        assert FaultSpec.parse("asm.error:li:3").times == 3
        assert FaultSpec.parse("asm.error:li:*").times is None

    @pytest.mark.parametrize("times", ["p0.5", "x", "-1", "1.5"])
    def test_malformed_times_rejected(self, times):
        with pytest.raises(ValueError, match="malformed fault spec"):
            FaultSpec.parse(f"asm.error:li:{times}")

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec.parse("nonsense.site")

    @pytest.mark.parametrize(
        "spec",
        [
            "worker.crash:go:1:extra",
            "worker.crash:go@x",
            "worker.crash:go@",
            "worker.crash:go@-1",
            "worker.crash:go@1.5",
        ],
    )
    def test_malformed_spec_rejected(self, spec):
        with pytest.raises(ValueError, match="malformed fault spec"):
            FaultSpec.parse(spec)

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError, match="empty fault plan"):
            FaultPlan.parse("  , ")

    def test_multi_spec_plan(self):
        plan = FaultPlan.parse("worker.crash:go, cache.corrupt:compress:2")
        assert len(plan.specs) == 2

    def test_every_catalog_site_parses(self):
        for site in SITES:
            assert FaultSpec.parse(site).site == site


class TestMatching:
    def test_workload_filter(self):
        spec = FaultSpec.parse("worker.crash:go")
        assert spec.matches("worker.crash", "go", 1)
        assert not spec.matches("worker.crash", "gcc", 1)
        assert not spec.matches("worker.hang", "go", 1)

    def test_attempt_filter(self):
        spec = FaultSpec.parse("worker.crash:go@1")
        assert spec.matches("worker.crash", "go", 1)
        assert not spec.matches("worker.crash", "go", 2)

    def test_times_exhaustion(self):
        plan = FaultPlan.parse("cache.torn_write:*:2")
        assert plan.should_fire("cache.torn_write", "go", 1)
        assert plan.should_fire("cache.torn_write", "go", 1)
        assert plan.should_fire("cache.torn_write", "go", 1) is None

    def test_unlimited_times(self):
        plan = FaultPlan.parse("cache.torn_write:*:*")
        for _ in range(10):
            assert plan.should_fire("cache.torn_write", None, None)


class TestArming:
    def test_armed_plan_without_spec_stays_disarmed(self, monkeypatch):
        # The environment arms nothing: a plan is always part of the
        # config, and so of the cache key.
        monkeypatch.setenv("REPRO_FAULTS", "asm.error")
        with faults.armed_plan(None) as plan:
            assert plan is None and not faults.armed()

    def test_armed_plan_installs_and_disarms(self):
        assert not faults.armed()
        with faults.armed_plan("worker.crash:go") as plan:
            assert faults.armed() and plan is faults.active_plan()
        assert not faults.armed()

    def test_armed_plan_keeps_existing_plan(self):
        outer = FaultPlan.parse("asm.error:li")
        faults.install_plan(outer)
        with faults.armed_plan("worker.crash:go") as plan:
            assert plan is outer  # fired counts persist across workloads
        assert faults.active_plan() is outer

    def test_scope_merging(self):
        faults.install_plan(FaultPlan.parse("asm.error:go@2"))
        with faults.scope(workload="go", attempt=2):
            # Inner workload-only scope inherits the outer attempt.
            with faults.scope(workload="go"):
                assert faults.should_fire("asm.error") is not None

    def test_scope_restores_on_exit(self):
        faults.install_plan(FaultPlan.parse("asm.error:go"))
        with faults.scope(workload="gcc"):
            assert faults.should_fire("asm.error") is None
        with faults.scope(workload="go"):
            assert faults.should_fire("asm.error") is not None


class TestCheckActions:
    def test_engine_site_raises_injected_sim_error(self):
        faults.install_plan(FaultPlan.parse("engine.trap"))
        with pytest.raises(SimError) as excinfo:
            faults.check("engine.trap")
        assert excinfo.value.injected is True

    def test_asm_site_raises_injected_asm_error(self):
        faults.install_plan(FaultPlan.parse("asm.error"))
        with pytest.raises(AsmError) as excinfo:
            faults.check("asm.error")
        assert excinfo.value.injected is True

    def test_torn_write_site_raises_fault_injected(self):
        faults.install_plan(FaultPlan.parse("cache.torn_write"))
        with pytest.raises(FaultInjected) as excinfo:
            faults.check("cache.torn_write")
        assert excinfo.value.site == "cache.torn_write"

    def test_unarmed_check_is_noop(self):
        faults.check("asm.error")  # nothing armed, nothing raised

    def test_fault_injected_pickles(self):
        error = FaultInjected("cache.torn_write")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.site == "cache.torn_write" and clone.injected

    def test_injection_counter(self, metrics_enabled):
        faults.install_plan(FaultPlan.parse("cache.torn_write:*:2"))
        for _ in range(2):
            with pytest.raises(FaultInjected):
                faults.check("cache.torn_write")
        assert metrics_enabled.value("fault.injected.cache.torn_write") == 2


class TestCacheFaultSites:
    def test_torn_write_leaves_previous_entry_intact(self, tmp_path):
        """Satellite: a writer killed mid-write can never tear an entry."""
        cache = ResultCache(tmp_path)
        config = SuiteConfig()
        cache.store("go", config, {"generation": 1})
        faults.install_plan(FaultPlan.parse("cache.torn_write:go"))
        with pytest.raises(FaultInjected):
            cache.store("go", config, {"generation": 2})
        faults.install_plan(None)
        # The old entry survives untouched and no temp files leak.
        assert cache.load("go", config) == {"generation": 1}
        assert list(tmp_path.glob("*.tmp")) == []

    def test_torn_first_write_leaves_no_entry(self, tmp_path, metrics_enabled):
        cache = ResultCache(tmp_path)
        config = SuiteConfig()
        faults.install_plan(FaultPlan.parse("cache.torn_write:go"))
        with pytest.raises(FaultInjected):
            cache.store("go", config, {"generation": 1})
        faults.install_plan(None)
        assert cache.load("go", config) is None
        assert list(tmp_path.glob("*")) == []
        # A clean miss, not a corrupt eviction.
        assert metrics_enabled.value("cache.disk.corrupt") == 0

    def test_corrupt_store_is_evicted_on_load(self, tmp_path, metrics_enabled):
        cache = ResultCache(tmp_path)
        config = SuiteConfig()
        faults.install_plan(FaultPlan.parse("cache.corrupt:go"))
        cache.store("go", config, {"generation": 1})
        faults.install_plan(None)
        assert cache.load("go", config) is None  # scribbled -> miss
        assert metrics_enabled.value("cache.disk.corrupt") == 1
        assert not cache.path_for("go", config).exists()  # evicted
