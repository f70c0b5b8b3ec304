"""Small arithmetic the benchmark reports with; no depthformer imports."""

from __future__ import annotations

import math
from collections import defaultdict

# Percentiles the tail rule may report, highest last.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def _rank(pct: float, n: int) -> int:
    # rounding first keeps 99.9% of 10000 at rank 9990, not 9991
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    """The smallest sample with at least ``pct`` percent of samples at or below it."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[_rank(pct, len(sorted_values)) - 1]


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(pct, value) for the highest ladder percentile with at least ten
    samples beyond it, or None when even the median has fewer."""
    ordered = sorted(values)
    best = None
    for pct in PERCENTILE_LADDER:
        rank = _rank(pct, len(ordered))
        if len(ordered) - rank >= MIN_BEYOND:
            best = (pct, ordered[rank - 1])
    return best


def expected_kv_projections(depth_maps: list[list[int]], batch_size: int) -> int:
    """Sum over batches of n_max * B * T, batching sentences the way
    evaluation does: grouped by length (shortest group first), in file
    order within a group, cut into runs of ``batch_size``.
    """
    groups: dict[int, list[list[int]]] = defaultdict(list)
    for depths in depth_maps:
        groups[len(depths)].append(depths)
    total = 0
    for length in sorted(groups):
        rows = groups[length]
        for lo in range(0, len(rows), batch_size):
            batch = rows[lo : lo + batch_size]
            total += max(max(d) for d in batch) * len(batch) * length
    return total

