"""Metrics registry: counters, gauges, and timers for run telemetry.

One process-global :class:`MetricsRegistry` (``REGISTRY``) collects
counts from the simulator, the result cache, the reuse buffer, and the
parallel suite runner.  It is **disabled by default** and costs nothing
while disabled: instrumented code checks ``REGISTRY.enabled`` once per
run (never per step).  The simulator publishes counts it keeps anyway
at the end of a run, so its hot loop runs the same code whether the
registry is on or off.

Names are dotted paths (``sim.calls``, ``cache.disk.corrupt``).
Three instrument kinds exist:

* :class:`Counter` — monotonically increasing integer (events, bytes);
* :class:`Gauge` — last-written value (occupancy at end of run);
* :class:`Timer` — duration accumulator (count / total / min / max).

``snapshot()`` serializes everything to plain dicts and ``merge()``
folds another snapshot in — the parallel runner ships worker snapshots
across the process boundary and merges them into the parent registry,
so ``run_suite(jobs=N)`` aggregates exactly like a serial run.
"""

from __future__ import annotations

from typing import Dict, Optional


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-value-wins metric."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Timer:
    """A duration accumulator (seconds)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if self.min is None or seconds < self.min:
            self.min = seconds
        if self.max is None or seconds > self.max:
            self.max = seconds


class MetricsRegistry:
    """A named collection of counters, gauges, and timers."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, Timer] = {}

    # -- instrument accessors (create on first use) --------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def timer(self, name: str) -> Timer:
        instrument = self._timers.get(name)
        if instrument is None:
            instrument = self._timers[name] = Timer()
        return instrument

    # -- guarded conveniences (no-ops while disabled) ------------------

    def inc(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counter(name).inc(amount)

    def observe(self, name: str, seconds: float) -> None:
        if self.enabled:
            self.timer(name).observe(seconds)

    # -- aggregation ---------------------------------------------------

    def value(self, name: str) -> int:
        """Current value of counter ``name`` (0 when never incremented)."""
        instrument = self._counters.get(name)
        return instrument.value if instrument is not None else 0

    def snapshot(self) -> dict:
        """Plain-dict view of every instrument (JSON/pickle friendly)."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "timers": {
                k: {"count": t.count, "total": t.total, "min": t.min, "max": t.max}
                for k, t in sorted(self._timers.items())
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` in: counters/timers add, gauges overwrite."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).value += value
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).value = value
        for name, stats in snapshot.get("timers", {}).items():
            timer = self.timer(name)
            timer.count += stats["count"]
            timer.total += stats["total"]
            for bound, better in (("min", min), ("max", max)):
                theirs = stats.get(bound)
                if theirs is None:
                    continue
                ours = getattr(timer, bound)
                setattr(timer, bound, theirs if ours is None else better(ours, theirs))

    def reset(self) -> None:
        """Drop every instrument (enablement is unchanged)."""
        self._counters.clear()
        self._gauges.clear()
        self._timers.clear()


#: The process-global registry all instrumented components report to.
REGISTRY = MetricsRegistry()


def enable() -> None:
    """Turn on metrics collection in the global registry."""
    REGISTRY.enabled = True


def disable() -> None:
    """Turn off metrics collection (existing values are kept)."""
    REGISTRY.enabled = False
