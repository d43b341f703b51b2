"""Per-analyzer profiling: attribute run time to each attached Analyzer.

:func:`instrument` times an :class:`~repro.sim.observer.Analyzer` where
it already runs.  On the instance, it replaces each hook the analyzer's
class overrides with a timed wrapper, and ``compile_step`` with one that
wraps every compiled step in a timer.  The simulator chooses an
analyzer's hooks by its *type* (:func:`repro.sim.simulator._hooks_for`,
:func:`~repro.sim.observer.takes_steps`), which instrumenting leaves
alone, so a profiled run takes exactly the path an unprofiled run takes:
compiled steps stay on the predecoded engine's record-free path, and an
analyzer is charged only for the steps it compiled (the function
analyzer for loads and stores, the value profiler for loads).

Timers go straight into the registry as ``profile.<Analyzer>.<hook>``:
``count`` calls taking ``total`` seconds.  Compiled steps count under
``on_step``, whose total also holds the ``compile_step`` calls.  The
runner instruments only while the registry is enabled (``--profile`` /
``run_suite(profile=True)``); :func:`profiles_from_snapshot` reads the
timers back and :func:`format_profile_table` renders them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List

from repro.sim.observer import Analyzer, overrides_on_step, takes_steps

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


def _timed(fn, timer):
    """``fn`` counted and timed into ``timer``, also when it raises."""

    def timed(*args):
        started = perf_counter()
        try:
            return fn(*args)
        finally:
            timer.count += 1
            timer.total += perf_counter() - started

    return timed


def instrument(analyzer: Analyzer, registry) -> None:
    """Time ``analyzer``'s hooks and compiled steps into ``registry``."""
    cls = type(analyzer)
    prefix = f"profile.{cls.__name__}."
    for hook in HOOKS:
        if getattr(cls, hook) is not getattr(Analyzer, hook):
            setattr(analyzer, hook, _timed(getattr(analyzer, hook), registry.timer(prefix + hook)))
    if not takes_steps(cls) or overrides_on_step(cls):
        return
    compile_step = analyzer.compile_step
    timer = registry.timer(prefix + "on_step")

    def timed_compile_step(pc, instr):
        started = perf_counter()
        step = compile_step(pc, instr)
        timer.total += perf_counter() - started
        return None if step is None else _timed(step, timer)

    analyzer.compile_step = timed_compile_step


def profiles_from_snapshot(snapshot: Dict) -> List[AnalyzerProfile]:
    """Rebuild per-analyzer profiles from a registry snapshot.

    Folds every ``profile.<Analyzer>.<hook>`` timer into an
    :class:`AnalyzerProfile`, so the CLI can render a table for runs
    whose timers crossed a process boundary as metrics.
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
