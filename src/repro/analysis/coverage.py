"""Coverage-curve math shared by the figure reproductions.

The paper's Figures 1 and 4 are cumulative coverage curves: sort the
contributors (static instructions / unique repeatable instances) by their
contribution to dynamic repetition, then ask what fraction of contributors
accounts for a given fraction of the total.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Sequence, Tuple


def contributors_for_fractions(
    weights: Sequence[int], fractions: Sequence[float]
) -> List[int]:
    """Per fraction, the smallest number of largest-weight contributors
    covering it.

    ``weights`` need not be sorted; zero weights never count as
    contributors.  Every count is 0 when the total weight is 0.  The
    weights are counted once into a histogram and its distinct values
    are walked in descending order: contribution lists run to tens of
    thousands of entries but hold only about a hundred distinct values
    (Figure 4's repeat counts), so the walk costs O(distinct values)
    after one C-level counting pass instead of a sort of every weight.
    Within a group of equal weights ``w`` the count is solved for
    directly: with integer weights summing below 2**53, ``target -
    covered`` is exact and the division rounds monotonically, so the
    ceiling is the count a one-by-one walk with the same float
    comparison finds.
    """
    for fraction in fractions:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    groups = sorted(
        ((w, n) for w, n in Counter(weights).items() if w > 0), reverse=True
    )
    if not groups:
        return [0] * len(fractions)
    total = sum(w * n for w, n in groups)
    pending = sorted(range(len(fractions)), key=fractions.__getitem__)
    needed = [sum(n for _, n in groups)] * len(fractions)
    covered = count = 0
    for weight, size in groups:
        while pending:
            target = total * fractions[pending[0]] - 1e-9
            if covered + size * weight < target:
                break
            k = min(max(math.ceil((target - covered) / weight), 1), size)
            needed[pending.pop(0)] = count + k
        if not pending:
            break
        covered += size * weight
        count += size
    return needed


def contributors_for_fraction(weights: Sequence[int], fraction: float) -> int:
    """Smallest number of largest-weight contributors covering ``fraction``."""
    return contributors_for_fractions(weights, (fraction,))[0]


def coverage_curve(
    weights: Sequence[int], fractions: Sequence[float]
) -> List[Tuple[float, float]]:
    """For each target coverage fraction, the fraction of contributors needed.

    Returns ``[(coverage_fraction, contributor_fraction), ...]``.  This is
    the transposed view used by Figure 1 ("X% of repeated static
    instructions account for Y% of repetition").
    """
    positive = [w for w in weights if w > 0]
    count = len(positive)
    if count == 0:
        return [(f, 0.0) for f in fractions]
    needed = contributors_for_fractions(positive, fractions)
    return [(f, n / count) for f, n in zip(fractions, needed)]


def cumulative_share_curve(
    weights: Sequence[int], points: int = 100
) -> List[Tuple[float, float]]:
    """Sampled cumulative curve: top x% of contributors -> y% of weight."""
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    positive = sorted((w for w in weights if w > 0), reverse=True)
    if not positive:
        return [(0.0, 0.0), (1.0, 0.0)]
    total = sum(positive)
    curve: List[Tuple[float, float]] = []
    covered = 0
    next_sample = 1
    for index, weight in enumerate(positive, start=1):
        covered += weight
        while index >= next_sample * len(positive) / points:
            curve.append((index / len(positive), covered / total))
            next_sample += 1
    # The last index samples ``next_sample == points``: the curve ends at (1, 1).
    return curve


#: Figure 3's bucket boundaries for unique-repeatable-instance counts.
INSTANCE_BUCKETS: Tuple[Tuple[int, int, str], ...] = (
    (1, 1, "1"),
    (2, 10, "2-10"),
    (11, 100, "11-100"),
    (101, 1000, "101-1000"),
    (1001, 1 << 62, ">1000"),
)


def bucket_label(instance_count: int) -> str:
    """Figure 3 bucket for a static instruction's unique-instance count."""
    for low, high, label in INSTANCE_BUCKETS:
        if low <= instance_count <= high:
            return label
    raise ValueError(f"instance count must be >= 1, got {instance_count}")


def bucket_shares(per_static: Dict[str, int]) -> Dict[str, float]:
    """Normalize per-bucket weights into shares of the total."""
    total = sum(per_static.values())
    if total == 0:
        return {label: 0.0 for _, _, label in INSTANCE_BUCKETS}
    return {
        label: per_static.get(label, 0) / total for _, _, label in INSTANCE_BUCKETS
    }
