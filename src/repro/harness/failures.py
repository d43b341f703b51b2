"""Failure taxonomy and recovery policy for suite execution.

Everything that can go wrong while running a workload — assembly /
compile errors, simulator traps, crashed child processes, watchdog
timeouts — is classified into a picklable
:class:`FailureRecord` so the suite runner can *keep going*: a
non-strict run returns a :class:`SuiteReport` carrying every finished
:class:`~repro.harness.runner.WorkloadResult` plus one terminal record
per failed workload, instead of discarding completed work on the first
exception.

The recovery policy is deliberately small and table-driven
(:func:`plan_next_action`):

* compile/assembly errors and simulator traps are permanent — fail
  immediately, no retry: both engines trap alike (same message, pc and
  retired counts), so no re-run can change the outcome;
* worker crashes (a ``run_suite(jobs>1)`` child, or the forked
  analysis child of a split run), timeouts of a forked suite attempt,
  and unknown errors are transient — bounded retry with capped
  exponential backoff and deterministic jitter (``retry.attempts``);
* serial watchdog timeouts are deterministic (same workload, same
  steps) and therefore permanent.

Cache faults never fail a workload: a failed store is logged and the
computed result kept (``runner.install_result``), and an unreadable
entry is a miss (:meth:`~repro.harness.cache.ResultCache.load`).

``strict=True`` — the default everywhere — preserves the historical
raise-on-first-error behaviour exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.asm.errors import AsmError
from repro.lang.errors import MiniCError
from repro.obs import tracing as obs_tracing
from repro.sim.errors import SimError

# -- taxonomy ----------------------------------------------------------

KIND_COMPILE = "compile-error"
KIND_SIM_TRAP = "sim-trap"
KIND_WORKER_CRASH = "worker-crash"
KIND_TIMEOUT = "timeout"
KIND_UNKNOWN = "unknown"


class WorkloadTimeout(Exception):
    """A workload exceeded its wall-clock budget.

    Raised by the watchdog (which pauses the simulator at an
    instruction boundary) and by the parent of a forked child that
    outlives its deadline plus ``CHILD_GRACE_S``.
    """

    def __init__(
        self, workload: str, seconds: float = 0.0, engine: Optional[str] = None
    ) -> None:
        self.workload = workload
        self.seconds = seconds
        self.engine = engine
        super().__init__(
            f"workload {workload!r} exceeded its {seconds:g}s wall-clock budget"
        )

    def __reduce__(self):
        return (WorkloadTimeout, (self.workload, self.seconds, self.engine))


class AnalysisChildCrash(Exception):
    """A forked child (a split run's analysis child, or a suite attempt's)
    died without a result.

    ``status`` is its exit code (negative: the signal that killed it).
    """

    def __init__(self, workload: str, status: Optional[int] = None) -> None:
        self.workload = workload
        self.status = status
        super().__init__(
            f"child process for {workload!r} exited with status {status} "
            "without a result"
        )

    def __reduce__(self):
        return (AnalysisChildCrash, (self.workload, self.status))


@dataclass
class FailureRecord:
    """One classified failure (picklable, JSON-able via :meth:`to_dict`)."""

    kind: str
    workload: str
    engine: str
    attempt: int
    message: str
    exception_type: str
    #: Short SHA-256 over the formatted traceback — lets repeated
    #: failures be grouped without shipping whole tracebacks around.
    traceback_digest: str = ""
    injected: bool = False
    when: float = field(default_factory=time.time)

    @property
    def attempts(self) -> int:
        """Total attempts made when this (terminal) record was written."""
        return self.attempt

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def classify_failure(
    exc: BaseException, *, workload: str, engine: str, attempt: int = 1
) -> FailureRecord:
    """Map an exception onto the failure taxonomy."""
    if isinstance(exc, WorkloadTimeout):
        kind = KIND_TIMEOUT
    elif isinstance(exc, AnalysisChildCrash):
        kind = KIND_WORKER_CRASH
    elif isinstance(exc, SimError):
        kind = KIND_SIM_TRAP
    elif isinstance(exc, (AsmError, MiniCError)):
        kind = KIND_COMPILE
    else:
        kind = KIND_UNKNOWN
    formatted = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )
    return FailureRecord(
        kind=kind,
        workload=workload,
        engine=engine,
        attempt=attempt,
        message=str(exc) or type(exc).__name__,
        exception_type=type(exc).__name__,
        traceback_digest=hashlib.sha256(formatted.encode()).hexdigest()[:12],
        injected=bool(getattr(exc, "injected", False)),
    )


def note_failure(record: FailureRecord) -> None:
    """Emit a zero-length ``failure`` span so traces show what broke where."""
    tracer = obs_tracing.current_tracer()
    if tracer is not None:
        tracer.begin(
            "failure",
            workload=record.workload,
            kind=record.kind,
            engine=record.engine,
            attempt=record.attempt,
            injected=record.injected,
        )
        tracer.end("failure")


# -- recovery policy ---------------------------------------------------


@dataclass(frozen=True)
class RecoveryPolicy:
    """How the suite responds to failing workloads."""

    #: ``True`` (default) raises on the first error — historical behaviour.
    strict: bool = True
    #: Bounded retries for transient failures (attempts = retries + 1).
    retries: int = 2
    #: Per-workload wall-clock budget (None = no watchdog).
    timeout_s: Optional[float] = None


#: Exponential backoff between retry attempts: base and cap, in seconds.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0


def backoff_seconds(workload: str, attempt: int) -> float:
    """Capped exponential backoff with deterministic jitter in [0, 100%)."""
    base = min(BACKOFF_CAP_S, BACKOFF_BASE_S * (2 ** (attempt - 1)))
    # The "0:" prefix keeps the jitter of the former seed-0 default.
    digest = hashlib.sha256(f"0:{workload}:{attempt}".encode()).digest()
    jitter = int.from_bytes(digest[:4], "big") / float(1 << 32)
    return base * (1.0 + jitter)


def plan_next_action(
    record: FailureRecord,
    *,
    attempt: int,
    retries: int,
    transient_timeouts: bool = True,
) -> str:
    """``"retry"`` / ``"fail"`` for a classified failure.

    ``transient_timeouts=False`` (serial runs) treats timeouts as
    permanent: the simulator is deterministic, so a sliced re-run would
    burn the same wall clock and time out again.  Timeouts of a forked
    suite attempt stay retryable — a hung child is an infrastructure
    flake, not a property of the workload.
    """
    if record.kind in (KIND_COMPILE, KIND_SIM_TRAP):
        return "fail"
    if record.kind == KIND_TIMEOUT and not transient_timeouts:
        return "fail"
    if attempt >= retries + 1:
        return "fail"
    return "retry"


# -- partial results ---------------------------------------------------


class SuiteReport(Dict[str, "WorkloadResult"]):  # noqa: F821 (typing only)
    """Suite results plus the failure ledger.

    A ``dict`` subclass so every existing consumer (experiment renders,
    markdown reports, tests) keeps working unchanged: the mapping holds
    the *surviving* ``WorkloadResult`` objects in suite order, while
    ``failures`` carries the terminal :class:`FailureRecord` per failed
    workload and ``history`` every failed attempt (including recovered
    ones).
    """

    def __init__(self, config=None) -> None:
        super().__init__()
        self.config = config
        self.failures: Dict[str, FailureRecord] = {}
        self.history: List[FailureRecord] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def partial(self) -> bool:
        return bool(self.failures)

    def summary(self) -> str:
        parts = [f"{len(self)} ok"]
        if self.failures:
            parts.append(f"{len(self.failures)} failed")
        if len(self.history) > len(self.failures):
            parts.append(f"{len(self.history)} failed attempts")
        return ", ".join(parts)


def _canonical(obj):
    """A deterministic, order-independent form of a report object.

    Sets (and dict buckets) iterate in layout order, which a pickle
    round-trip across a process boundary can permute — two semantically
    equal results must still digest identically, so unordered
    containers are sorted and dataclasses flattened to field tuples.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (
            type(obj).__name__,
            tuple(
                (f.name, _canonical(getattr(obj, f.name)))
                for f in dataclasses.fields(obj)
            ),
        )
    if isinstance(obj, dict):
        items = [(_canonical(k), _canonical(v)) for k, v in obj.items()]
        return ("dict", tuple(sorted(items, key=repr)))
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted((_canonical(v) for v in obj), key=repr)))
    if isinstance(obj, (list, tuple)):
        return ("seq", tuple(_canonical(v) for v in obj))
    return obj


def result_digest(result) -> str:
    """SHA-256 over a WorkloadResult's *measured* content.

    Provenance (the manifest: timings, cache disposition, retry
    history) is excluded, so a result recovered after retries digests
    identically to a clean run — the property the chaos tests pin down.
    """
    payload = _canonical(
        (
            result.workload.name,
            result.run,
            result.repetition,
            result.global_analysis,
            result.function_analysis,
            result.local_analysis,
            result.reuse,
            result.value_profile,
            result.trace_reuse,
            result.static_program_instructions,
        )
    )
    return hashlib.sha256(pickle.dumps(payload, protocol=4)).hexdigest()


# -- serial watchdog ---------------------------------------------------


class Watchdog:
    """Wall-clock deadline for an in-process simulation.

    Uses the simulator's own pause mechanism: when the timer fires, the
    run stops at the next instruction boundary with ``stop_reason ==
    "paused"`` (analyzers are *not* finalized), and the runner converts
    that into a :class:`WorkloadTimeout`.  The paused simulator could be
    continued via ``resume(additional_limit=...)`` by callers that want
    to grant a grace window instead of failing.
    """

    def __init__(self, simulator, seconds: float) -> None:
        self.fired = False
        self._simulator = simulator
        self._timer = threading.Timer(seconds, self._fire)
        self._timer.daemon = True

    def _fire(self) -> None:
        self.fired = True
        self._simulator.request_pause()

    def __enter__(self) -> "Watchdog":
        self._timer.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._timer.cancel()
