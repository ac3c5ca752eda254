"""Statistics the benchmark reports: nearest-rank percentiles under the tail
rule, and per-layer self time from a span tree."""

from __future__ import annotations

import math
from typing import Sequence

# Percentiles the benchmark may report, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)

# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def tail_percentile(n: int) -> float | None:
    """Highest percentile on the ladder with at least MIN_TAIL_SAMPLES of
    ``n`` samples strictly beyond it, or None when not even the median is."""
    for p in PERCENTILE_LADDER:
        if n - nearest_rank(n, p) >= MIN_TAIL_SAMPLES:
            return p
    return None


def nearest_rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile ``p`` in ``n`` sorted samples."""
    if n < 1:
        raise ValueError("need at least one sample")
    # round() first so that e.g. 99.0 / 100 * 1000 = 990.0000000000001 is 990.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), p) - 1]


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    ``parents[i]`` is the index of span i's parent, or -1 for a root. Children
    run inside their parent's interval on one thread, so their durations add
    up to the covered part of it.
    """
    durations = [e - s for s, e in zip(starts, ends)]
    covered = [0.0] * len(durations)
    for i, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += durations[i]
    return [d - c for d, c in zip(durations, covered)]
