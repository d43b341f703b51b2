"""Trace safety filter: which candidates may be recorded at all.

A trace only counts as reusable if re-executing it is fully determined
by its live-ins.  Calls, returns and syscalls never enter a region (the
analyzer ends the region before them).  A candidate is rejected when it

* stores outside the tracked data/heap/stack segments (self-modifying-
  code adjacent or wild),
* loads bytes partially written in-trace (the mixed value cannot be
  expressed as a single pre-trace live-in), or
* — in strict mode — has *implicit inputs* in the sense of the paper's
  §5.2 machinery (:func:`repro.core.function_analysis
  .classify_memory_access`): live-in loads from global/heap memory.
  This is the idempotent-slices criterion of Azevedo et al.; the default
  policy instead admits such loads and relies on store-based
  invalidation for freshness.

Length bounds also live here: a trace shorter than ``min_len`` is not
worth an entry (the instruction-level reuse buffer already covers single
instructions), and one longer than the table's ``max_trace_len`` must
have been split by the recorder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.function_analysis import classify_memory_access

#: Rejection reasons, as counted in ``TraceReuseReport.rejections``.
REASON_UNTRACKED_STORE = "untracked-store"
REASON_OVERLAP = "partial-overlap"
REASON_TOO_SHORT = "too-short"
REASON_TOO_LONG = "too-long"
REASON_IMPLICIT_INPUT = "implicit-input"

#: Traces must cover at least this many instructions by default.
DEFAULT_MIN_TRACE_LEN = 2


@dataclass(frozen=True)
class SafetyPolicy:
    """Knobs for :func:`check_candidate`."""

    #: Candidates shorter than this are rejected (``too-short``).
    min_len: int = DEFAULT_MIN_TRACE_LEN
    #: When False, any global/heap memory live-in rejects the candidate
    #: (``implicit-input`` — the strict Azevedo-style criterion).
    allow_memory_live_ins: bool = True


def check_candidate(
    unsafe: Optional[str],
    length: int,
    max_len: int,
    mem_in: Tuple[Tuple[int, int, int], ...],
    policy: SafetyPolicy = SafetyPolicy(),
) -> Optional[str]:
    """``None`` if the candidate may be installed, else the reason.

    Precedence: a structural violation (``unsafe``), then too-short,
    then too-long, then implicit-input.
    """
    if unsafe is not None:
        return unsafe
    if length < policy.min_len:
        return REASON_TOO_SHORT
    if length > max_len:
        return REASON_TOO_LONG
    if not policy.allow_memory_live_ins:
        for address, _width, _raw in mem_in:
            if classify_memory_access(address, is_store=False) == "implicit_input":
                return REASON_IMPLICIT_INPUT
    return None
