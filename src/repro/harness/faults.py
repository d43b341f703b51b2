"""Deterministic fault injection for the suite harness.

Every recovery path in the harness (retry, watchdog, engine
degradation, cache self-healing — see :mod:`repro.harness.failures`)
is exercised through *this* registry rather than through prod-only test
hooks: the production code calls :func:`check` / :func:`should_fire` at
a small catalog of named sites, and an armed :class:`FaultPlan` decides
— deterministically — whether the fault fires.  With no plan armed the
site checks are a single module-attribute test, so zero-fault runs pay
nothing measurable.

Plans are armed two ways:

* ``SuiteConfig.fault_plan`` (``repro-run --faults``) — a spec string
  carried by the run configuration, and therefore by the cache key, so
  faulted runs can never serve or poison clean cache entries;
* :func:`install_plan` directly (tests).

Spec grammar (comma-separated)::

    site[:workload[@attempt]][:times]

    worker.crash:go            crash go's worker (every attempt)
    worker.crash:go@1          crash only go's first attempt
    engine.predecode_raise:*:2 fail the first two predecoded runs
    cache.corrupt:compress     corrupt compress's cache entry on store

``times`` bounds how often a spec fires: an integer, or ``*`` for
unlimited (default 1).  Counts are per installed plan: each forked
attempt of ``run_suite(jobs>1)`` installs the plan from the config
afresh, so worker-site specs fire per *attempt* (which is what chaos
tests want), while a serial suite shares one plan across all its
workloads.  The engine sites fire in the runner just before it builds
the simulator, before any analyzer state is touched.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.asm.errors import AsmError
from repro.obs import metrics as obs_metrics
from repro.sim.errors import SimError

#: How long an injected hang sleeps.  Bounded (not infinite) so a
#: broken watchdog stalls a test run by a minute, not forever.
HANG_SECONDS = 60.0

#: The injection-site catalog: site name -> what firing does.
SITES: Dict[str, str] = {
    "worker.crash": "suite child dies with os._exit (AnalysisChildCrash)",
    "worker.hang": f"suite child sleeps {HANG_SECONDS:.0f}s (parent deadline)",
    "cache.corrupt": "persistent-cache entry is scribbled after a store",
    "cache.torn_write": "persistent-cache store dies mid-write (before replace)",
    "engine.predecode_raise": "predecoded engine raises SimError at run start",
    "engine.interp_raise": "interpreter engine raises SimError at run start",
    "asm.error": "workload assembly raises AsmError",
}


class FaultInjected(RuntimeError):
    """An error raised by the fault harness itself (e.g. a torn write)."""

    injected = True

    def __init__(self, site: str, message: Optional[str] = None) -> None:
        self.site = site
        super().__init__(message or f"injected fault at {site}")

    def __reduce__(self):
        return (FaultInjected, (self.site, str(self)))


@dataclass
class FaultSpec:
    """One armed fault: where it fires, for whom, and how often."""

    site: str
    workload: str = "*"
    attempt: Optional[int] = None
    times: Optional[int] = 1  # None = unlimited
    fired: int = 0

    @classmethod
    def parse(cls, token: str) -> "FaultSpec":
        parts = token.strip().split(":")
        site = parts[0].strip()
        if site not in SITES:
            known = ", ".join(sorted(SITES))
            raise ValueError(f"unknown fault site {site!r} (known: {known})")
        if len(parts) > 3:
            raise ValueError(f"malformed fault spec {token!r}")
        workload, attempt = "*", None
        if len(parts) > 1 and parts[1]:
            workload = parts[1].strip()
            if "@" in workload:
                workload, attempt_text = workload.split("@", 1)
                workload = workload or "*"
                if not attempt_text.strip().isdigit():
                    raise ValueError(
                        f"malformed fault spec {token!r} (attempt: an integer)"
                    )
                attempt = int(attempt_text)
        times: Optional[int] = 1
        if len(parts) > 2 and parts[2]:
            bound = parts[2].strip()
            if bound == "*":
                times = None
            elif bound.isdigit():
                times = int(bound)
            else:
                raise ValueError(f"malformed fault spec {token!r} (times: an integer or *)")
        return cls(site, workload, attempt, times)

    def matches(self, site: str, workload: Optional[str], attempt: Optional[int]) -> bool:
        if site != self.site:
            return False
        if self.workload != "*" and workload != self.workload:
            return False
        if self.attempt is not None and attempt != self.attempt:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        return True


class FaultPlan:
    """A parsed set of :class:`FaultSpec`."""

    def __init__(self, specs: Tuple[FaultSpec, ...], text: str = "") -> None:
        self.specs = tuple(specs)
        self.text = text

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        specs = tuple(
            FaultSpec.parse(token) for token in text.split(",") if token.strip()
        )
        if not specs:
            raise ValueError(f"empty fault plan {text!r}")
        return cls(specs, text=text)

    def should_fire(
        self, site: str, workload: Optional[str], attempt: Optional[int]
    ) -> Optional[FaultSpec]:
        """The first matching spec that fires now, updating its count."""
        for spec in self.specs:
            if not spec.matches(site, workload, attempt):
                continue
            spec.fired += 1
            obs_metrics.REGISTRY.inc(f"fault.injected.{site}")
            return spec
        return None


# -- process-global arming state ---------------------------------------

_ACTIVE: Optional[FaultPlan] = None

#: Scope stack: merged dicts of {"workload": ..., "attempt": ...}.
_SCOPE: List[dict] = []


def install_plan(plan: Optional[FaultPlan]) -> None:
    """Arm ``plan`` process-globally (``None`` disarms)."""
    global _ACTIVE
    _ACTIVE = plan


def active_plan() -> Optional[FaultPlan]:
    return _ACTIVE


def armed() -> bool:
    """Cheap site-side guard: is any fault plan installed?"""
    return _ACTIVE is not None


@contextmanager
def armed_plan(spec: Optional[str]):
    """Arm the plan parsed from ``spec`` for the block.

    An already-armed plan is kept (so a suite-level plan persists its
    fired counts across the workloads it runs); otherwise the plan is
    installed on entry and disarmed on exit.
    """
    if _ACTIVE is not None or not spec:
        yield _ACTIVE
        return
    plan = FaultPlan.parse(spec)
    install_plan(plan)
    try:
        yield plan
    finally:
        install_plan(None)


@contextmanager
def scope(workload: Optional[str] = None, attempt: Optional[int] = None):
    """Attach workload/attempt context for site checks inside the block.

    Nested scopes merge: an inner ``scope(workload=...)`` inherits the
    outer scope's attempt, so the sites inside ``run_workload`` (which
    knows nothing about attempts) still match ``@attempt`` specs.
    """
    merged = dict(_SCOPE[-1]) if _SCOPE else {}
    if workload is not None:
        merged["workload"] = workload
    if attempt is not None:
        merged["attempt"] = attempt
    _SCOPE.append(merged)
    try:
        yield
    finally:
        _SCOPE.pop()


def _context(workload: Optional[str]) -> Tuple[Optional[str], Optional[int]]:
    current = _SCOPE[-1] if _SCOPE else {}
    if workload is None:
        workload = current.get("workload")
    return workload, current.get("attempt")


def should_fire(site: str, workload: Optional[str] = None) -> Optional[FaultSpec]:
    """Non-raising site check (for sites whose action is caller-side)."""
    if _ACTIVE is None:
        return None
    scoped_workload, attempt = _context(workload)
    return _ACTIVE.should_fire(site, scoped_workload, attempt)


def check(site: str, workload: Optional[str] = None) -> None:
    """Raising site check: perform the site's action if a spec fires."""
    spec = should_fire(site, workload)
    if spec is None:
        return
    if site == "worker.crash":
        # Simulates a hard child death (segfault, OOM-kill): no payload
        # crosses the pipe, the parent raises AnalysisChildCrash.
        os._exit(70)
    if site == "worker.hang":
        time.sleep(HANG_SECONDS)
        return
    if site in ("engine.predecode_raise", "engine.interp_raise"):
        error = SimError(f"injected fault at {site}")
        error.injected = True
        raise error
    if site == "asm.error":
        error = AsmError(f"injected fault at {site}")
        error.injected = True
        raise error
    # cache.torn_write and any future raise-style site.
    raise FaultInjected(site)
