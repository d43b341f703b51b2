"""Unit tests for the metrics registry."""

from __future__ import annotations

import pickle

import pytest

from repro.obs.metrics import REGISTRY, MetricsRegistry, Timer


class TestInstruments:
    def test_counter_increments(self):
        registry = MetricsRegistry(enabled=True)
        registry.inc("a")
        registry.inc("a", 4)
        assert registry.value("a") == 5

    def test_value_of_unknown_counter_is_zero(self):
        assert MetricsRegistry().value("never.touched") == 0

    def test_gauge_is_last_value_wins(self):
        registry = MetricsRegistry(enabled=True)
        registry.gauge("g").set(7)
        registry.gauge("g").set(3)
        assert registry.gauge("g").value == 3

    def test_timer_tracks_count_total_min_max(self):
        timer = Timer()
        for seconds in (0.5, 0.1, 0.4):
            timer.observe(seconds)
        assert timer.count == 3
        assert timer.total == pytest.approx(1.0)
        assert timer.min == pytest.approx(0.1)
        assert timer.max == pytest.approx(0.5)

    def test_accessors_are_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.timer("t") is registry.timer("t")


class TestDisabledRegistry:
    def test_guarded_writes_are_noops(self):
        registry = MetricsRegistry()  # disabled by default
        registry.inc("a")
        registry.observe("t", 0.1)
        snap = registry.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "timers": {}}

    def test_global_registry_defaults_disabled(self):
        assert REGISTRY.enabled is False


class TestSnapshotMerge:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry(enabled=True)
        registry.inc("c", 2)
        registry.gauge("g").set(9)
        registry.observe("t", 0.2)
        registry.observe("t", 0.6)
        return registry

    def test_snapshot_round_trips_through_pickle(self):
        snap = self._populated().snapshot()
        assert pickle.loads(pickle.dumps(snap)) == snap

    def test_merge_adds_counters_and_timers(self):
        first, second = self._populated(), self._populated()
        first.merge(second.snapshot())
        assert first.value("c") == 4
        timer = first.timer("t")
        assert timer.count == 4
        assert timer.total == pytest.approx(1.6)
        assert timer.min == pytest.approx(0.2)
        assert timer.max == pytest.approx(0.6)

    def test_merge_overwrites_gauges(self):
        registry = self._populated()
        other = MetricsRegistry(enabled=True)
        other.gauge("g").set(42)
        registry.merge(other.snapshot())
        assert registry.gauge("g").value == 42

    def test_merge_into_empty_registry(self):
        empty = MetricsRegistry(enabled=True)
        empty.merge(self._populated().snapshot())
        assert empty.value("c") == 2
        assert empty.timer("t").min == pytest.approx(0.2)

    def test_reset_drops_instruments_keeps_enablement(self):
        registry = self._populated()
        registry.reset()
        assert registry.enabled is True
        assert registry.snapshot() == {"counters": {}, "gauges": {}, "timers": {}}
