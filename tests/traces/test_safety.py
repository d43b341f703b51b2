"""Tests for the trace safety filter."""

from __future__ import annotations

import pytest

from repro.isa.convention import DATA_BASE, STACK_TOP
from repro.traces.safety import (
    REASON_IMPLICIT_INPUT,
    REASON_OVERLAP,
    REASON_TOO_LONG,
    REASON_TOO_SHORT,
    SafetyPolicy,
    check_candidate,
)

STRICT = SafetyPolicy(allow_memory_live_ins=False)
GLOBAL_LIVE_IN = ((DATA_BASE, 4, 7),)


class TestCheckCandidate:
    def test_clean_candidate_passes(self):
        assert check_candidate(None, 2, 16, ()) is None

    def test_unsafe_marker_wins_over_length(self):
        # A one-instruction candidate is both unsafe and too short; the
        # structural violation is the reported reason.
        assert check_candidate(REASON_OVERLAP, 1, 16, ()) == REASON_OVERLAP

    def test_too_short(self):
        assert check_candidate(None, 1, 16, ()) == REASON_TOO_SHORT

    def test_min_len_configurable(self):
        assert check_candidate(None, 1, 16, (), SafetyPolicy(min_len=1)) is None

    def test_too_long(self):
        assert check_candidate(None, 3, 2, ()) == REASON_TOO_LONG

    @pytest.mark.parametrize(
        "length,max_len,reason", [(1, 16, REASON_TOO_SHORT), (3, 2, REASON_TOO_LONG)]
    )
    def test_length_wins_over_implicit_input(self, length, max_len, reason):
        assert check_candidate(None, length, max_len, GLOBAL_LIVE_IN, STRICT) == reason

    def test_strict_policy_rejects_global_live_in(self):
        assert check_candidate(None, 2, 16, GLOBAL_LIVE_IN) is None
        assert check_candidate(None, 2, 16, GLOBAL_LIVE_IN, STRICT) == REASON_IMPLICIT_INPUT

    def test_strict_policy_admits_stack_live_in(self):
        # Stack loads are explicit inputs in the paper's §5.2 sense.
        assert check_candidate(None, 2, 16, ((STACK_TOP - 64, 4, 7),), STRICT) is None
