"""Per-analyzer profiling: attribute run time to each attached Analyzer.

:func:`wrap_profiled` wraps an :class:`~repro.sim.observer.Analyzer` in
a transparent proxy that times every hook invocation into an
:class:`AnalyzerProfile`.  The proxy *class* is generated per set of
overridden hooks (and cached), because the simulator's fast path
decides per hook whether an analyzer participates by looking at the
analyzer's **type** (:func:`repro.sim.simulator._hooks_for`): a proxy
that blindly overrode ``on_step`` for a call-graph-only analyzer would
force step-record materialization and destroy the record-free fast
path.  Wrapping therefore preserves exactly the event stream the bare
analyzer would have had, plus one timed call frame per delivered event.
A proxy takes steps through ``on_step``, so the predecoded engine builds
a step record for it that the bare compiled analyzer would not need;
its step times include that record's unpacking, not its construction.

Profiling is opt-in (``--profile`` / ``run_suite(profile=True)``); the
measured hook times are published to the metrics registry under
``profile.<Analyzer>.<hook>`` and rendered by
:func:`format_profile_table`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Tuple, Type

from repro.sim.observer import Analyzer, takes_steps

#: Every hook the simulator can deliver.
HOOKS = ("on_start", "on_step", "on_call", "on_return", "on_syscall", "on_finish")


@dataclass
class AnalyzerProfile:
    """Call counts and cumulative seconds per hook for one analyzer."""

    name: str
    calls: Dict[str, int] = field(default_factory=dict)
    seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    @property
    def total_calls(self) -> int:
        return sum(self.calls.values())

    def publish(self, registry) -> None:
        """Fold this profile into ``registry`` as ``profile.*`` timers."""
        for hook, count in self.calls.items():
            timer = registry.timer(f"profile.{self.name}.{hook}")
            timer.count += count
            timer.total += self.seconds.get(hook, 0.0)


def _make_hook(hook_name: str):
    def hook(self, *event):
        profile = self._profile
        started = perf_counter()
        try:
            return getattr(self._inner, hook_name)(*event)
        finally:
            elapsed = perf_counter() - started
            profile.calls[hook_name] = profile.calls.get(hook_name, 0) + 1
            profile.seconds[hook_name] = profile.seconds.get(hook_name, 0.0) + elapsed

    hook.__name__ = hook_name
    return hook


#: Proxy classes keyed by the tuple of hooks they forward.
_PROXY_CLASSES: Dict[Tuple[str, ...], Type[Analyzer]] = {}


def _overridden_hooks(analyzer: Analyzer) -> Tuple[str, ...]:
    """Hooks the proxy must forward.

    A compiled analyzer (one overriding ``compile_step``) takes steps
    through its ``on_step`` adapter, so its proxy forwards ``on_step``.
    """
    cls = type(analyzer)
    return tuple(
        name
        for name in HOOKS
        if getattr(cls, name) is not getattr(Analyzer, name)
        or (name == "on_step" and takes_steps(cls))
    )


def _proxy_class(hooks: Tuple[str, ...]) -> Type[Analyzer]:
    proxy = _PROXY_CLASSES.get(hooks)
    if proxy is None:
        namespace = {name: _make_hook(name) for name in hooks}
        namespace["__slots__"] = ("_inner", "_profile")

        def __init__(self, inner: Analyzer, profile: AnalyzerProfile) -> None:
            self._inner = inner
            self._profile = profile

        namespace["__init__"] = __init__
        proxy = type(f"Profiled[{','.join(hooks) or 'none'}]", (Analyzer,), namespace)
        _PROXY_CLASSES[hooks] = proxy
    return proxy


def wrap_profiled(analyzer: Analyzer) -> Tuple[Analyzer, AnalyzerProfile]:
    """A profiling proxy for ``analyzer`` plus its (live) profile."""
    profile = AnalyzerProfile(name=type(analyzer).__name__)
    proxy = _proxy_class(_overridden_hooks(analyzer))(analyzer, profile)
    return proxy, profile


def wrap_all(analyzers) -> Tuple[List[Analyzer], List[AnalyzerProfile]]:
    """Wrap a whole analyzer stack; returns (proxies, profiles)."""
    proxies: List[Analyzer] = []
    profiles: List[AnalyzerProfile] = []
    for analyzer in analyzers:
        proxy, profile = wrap_profiled(analyzer)
        proxies.append(proxy)
        profiles.append(profile)
    return proxies, profiles


def profiles_from_snapshot(snapshot: Dict) -> List[AnalyzerProfile]:
    """Rebuild per-analyzer profiles from a registry snapshot.

    Inverse of :meth:`AnalyzerProfile.publish` — folds every
    ``profile.<Analyzer>.<hook>`` timer back into an
    :class:`AnalyzerProfile`, so the CLI can render a table for runs
    whose profiles crossed a process boundary (or a cache) as metrics.
    Per-hook timing distributions are summarized (count/total only).
    """
    by_name: Dict[str, AnalyzerProfile] = {}
    for key, stats in snapshot.get("timers", {}).items():
        if not key.startswith("profile."):
            continue
        _, name, hook = key.split(".", 2)
        profile = by_name.setdefault(name, AnalyzerProfile(name=name))
        profile.calls[hook] = profile.calls.get(hook, 0) + stats["count"]
        profile.seconds[hook] = profile.seconds.get(hook, 0.0) + stats["total"]
    return list(by_name.values())


def format_profile_table(
    profiles: List[AnalyzerProfile], phases: Dict[str, float] = None
) -> str:
    """Render per-phase and per-analyzer timing as an aligned text table."""
    lines: List[str] = []
    if phases:
        lines.append("phase                      seconds")
        lines.append("-" * 35)
        for name, seconds in sorted(phases.items(), key=lambda kv: -kv[1]):
            lines.append(f"{name:<24s} {seconds:>10.4f}")
        lines.append("")
    lines.append("analyzer                   hook             calls     seconds")
    lines.append("-" * 62)
    for profile in sorted(profiles, key=lambda p: -p.total_seconds):
        for hook in HOOKS:
            if hook not in profile.calls:
                continue
            lines.append(
                f"{profile.name:<26s} {hook:<12s} {profile.calls[hook]:>9,d} "
                f"{profile.seconds.get(hook, 0.0):>11.4f}"
            )
        lines.append(
            f"{profile.name:<26s} {'TOTAL':<12s} {profile.total_calls:>9,d} "
            f"{profile.total_seconds:>11.4f}"
        )
    return "\n".join(lines)
