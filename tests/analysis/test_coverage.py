"""Unit and property tests for coverage-curve math."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.coverage import (
    INSTANCE_BUCKETS,
    bucket_label,
    bucket_shares,
    contributors_for_fraction,
    contributors_for_fractions,
    coverage_curve,
    cumulative_share_curve,
)
from repro.harness.experiments import _FIG1_TARGETS, _FIG4_TARGETS

weights = st.lists(st.integers(min_value=0, max_value=1000), max_size=50)


class TestContributorsForFraction:
    def test_simple(self):
        assert contributors_for_fraction([50, 30, 20], 0.5) == 1
        assert contributors_for_fraction([50, 30, 20], 0.8) == 2
        assert contributors_for_fraction([50, 30, 20], 1.0) == 3

    def test_unsorted_input(self):
        assert contributors_for_fraction([20, 50, 30], 0.5) == 1

    def test_zero_weights_ignored(self):
        assert contributors_for_fraction([0, 0, 10], 1.0) == 1

    def test_empty_and_zero(self):
        assert contributors_for_fraction([], 0.5) == 0
        assert contributors_for_fraction([0, 0], 0.9) == 0

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            contributors_for_fraction([1], 1.5)

    @given(weights, st.floats(min_value=0.0, max_value=1.0))
    def test_bounds(self, values, fraction):
        needed = contributors_for_fraction(values, fraction)
        positive = [v for v in values if v > 0]
        assert 0 <= needed <= len(positive)

    @given(weights)
    def test_monotone_in_fraction(self, values):
        results = [contributors_for_fraction(values, f) for f in (0.25, 0.5, 0.75, 1.0)]
        assert results == sorted(results)

    @given(weights.filter(lambda v: sum(v) > 0))
    def test_covers_claimed_fraction(self, values):
        needed = contributors_for_fraction(values, 0.75)
        top = sorted((v for v in values if v > 0), reverse=True)[:needed]
        assert sum(top) >= 0.75 * sum(values) - 1e-6


def _walk(values, fraction):
    """One target at a time: walk the sorted weights until covered."""
    positive = sorted((v for v in values if v > 0), reverse=True)
    total = sum(positive)
    covered = 0
    for index, weight in enumerate(positive, start=1):
        covered += weight
        if covered >= total * fraction - 1e-9:
            return index
    return len(positive)


#: Few distinct small values: many zeros and ties.
tied_weights = st.lists(st.integers(min_value=0, max_value=4), max_size=60)
fractions = st.lists(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0])
    | st.floats(min_value=0.0, max_value=1.0),
    max_size=8,
)


#: Integers up to 10**6 drawn from a small pool, so ties and zeros are common.
wide_weights = st.lists(
    st.sampled_from([0, 1, 2, 999_999, 10**6])
    | st.integers(min_value=0, max_value=10**6),
    max_size=80,
)


def _repeat_counts(seed=17, length=25_000, distinct=100):
    """A seeded list shaped like ``instance_repeat_counts``: no zeros,
    about ``distinct`` values, small counts far more common than large."""
    rng = random.Random(seed)
    pool = sorted(rng.sample(range(2, 5_000), distinct))
    return [pool[min(int(rng.expovariate(0.08)), distinct - 1)] for _ in range(length)]


class TestContributorsForFractions:
    @given(tied_weights, fractions)
    def test_equals_one_target_walk(self, values, targets):
        assert contributors_for_fractions(values, targets) == [
            _walk(values, target) for target in targets
        ]

    def test_validates_every_fraction(self):
        with pytest.raises(ValueError):
            contributors_for_fractions([1, 2], [0.5, -0.1])

    @given(wide_weights, fractions)
    def test_wide_weights_equal_one_target_walk(self, values, targets):
        assert contributors_for_fractions(values, targets) == [
            _walk(values, target) for target in targets
        ]

    @pytest.mark.parametrize("targets", [_FIG1_TARGETS, _FIG4_TARGETS])
    def test_long_repeat_count_list_equals_one_target_walk(self, targets):
        values = _repeat_counts()
        assert contributors_for_fractions(values, targets) == [
            _walk(values, target) for target in targets
        ]

    @pytest.mark.parametrize("targets", [_FIG1_TARGETS, _FIG4_TARGETS])
    @given(values=wide_weights)
    def test_figure_targets_equal_one_target_walk(self, values, targets):
        assert contributors_for_fractions(values, targets) == [
            _walk(values, target) for target in targets
        ]


class TestCoverageCurve:
    def test_basic_shape(self):
        curve = coverage_curve([90, 5, 5], [0.5, 0.9, 1.0])
        assert curve[0] == (0.5, pytest.approx(1 / 3))
        assert curve[2] == (1.0, pytest.approx(1.0))

    def test_empty(self):
        assert coverage_curve([], [0.5]) == [(0.5, 0.0)]

    @given(wide_weights, fractions)
    def test_equals_one_target_walk(self, values, targets):
        count = sum(1 for v in values if v > 0)
        expected = [(t, _walk(values, t) / count if count else 0.0) for t in targets]
        assert coverage_curve(values, targets) == expected

    def test_long_repeat_count_list_equals_one_target_walk(self):
        values = _repeat_counts()
        targets = _FIG1_TARGETS + _FIG4_TARGETS
        expected = [(t, _walk(values, t) / len(values)) for t in targets]
        assert coverage_curve(values, targets) == expected


class TestCumulativeShareCurve:
    def test_endpoints(self):
        curve = cumulative_share_curve([10, 5, 1], points=10)
        assert curve[-1] == (1.0, 1.0)

    @pytest.mark.parametrize("points", [0, -1])
    def test_rejects_fewer_than_one_point(self, points):
        with pytest.raises(ValueError):
            cumulative_share_curve([10, 5, 1], points=points)

    def test_all_zero_weights(self):
        assert cumulative_share_curve([0, 0], points=5) == [(0.0, 0.0), (1.0, 0.0)]
        assert cumulative_share_curve([], points=5) == [(0.0, 0.0), (1.0, 0.0)]

    @given(weights.filter(lambda v: sum(v) > 0), st.integers(min_value=1, max_value=50))
    def test_monotone_and_ends_at_one(self, values, points):
        curve = cumulative_share_curve(values, points=points)
        xs = [x for x, _ in curve]
        ys = [y for _, y in curve]
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert curve[-1] == (1.0, 1.0)
        assert len(curve) == points


class TestBuckets:
    @pytest.mark.parametrize(
        "count,label",
        [(1, "1"), (2, "2-10"), (10, "2-10"), (11, "11-100"), (100, "11-100"),
         (101, "101-1000"), (1000, "101-1000"), (1001, ">1000"), (10**6, ">1000")],
    )
    def test_bucket_label(self, count, label):
        assert bucket_label(count) == label

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            bucket_label(0)

    def test_bucket_shares_normalized(self):
        shares = bucket_shares({"1": 30, "2-10": 70})
        assert shares["1"] == pytest.approx(0.3)
        assert shares["2-10"] == pytest.approx(0.7)
        assert shares[">1000"] == 0.0
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_bucket_shares_empty(self):
        shares = bucket_shares({})
        assert all(v == 0.0 for v in shares.values())
        assert set(shares) == {label for _, _, label in INSTANCE_BUCKETS}
