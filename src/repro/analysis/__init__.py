"""Analysis utilities: coverage math and table formatting."""

from repro.analysis.coverage import (
    INSTANCE_BUCKETS,
    bucket_label,
    bucket_shares,
    contributors_for_fraction,
    coverage_curve,
    cumulative_share_curve,
)

__all__ = [
    "INSTANCE_BUCKETS",
    "bucket_label",
    "bucket_shares",
    "contributors_for_fraction",
    "coverage_curve",
    "cumulative_share_curve",
]
