"""Percentiles and the rule for which tail percentile a sample supports."""

from __future__ import annotations

import math
import statistics

# A tail percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10

PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {p}")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie strictly above the nearest-rank p-th percentile."""
    return n - max(math.ceil(p / 100.0 * n), 1)


def min_samples_for(p: float, beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count whose p-th percentile has `beyond` samples above it."""
    n = 1
    while samples_beyond(n, p) < beyond:
        n += 1
    return n


def highest_supported(n: int, candidates=PERCENTILES, beyond: int = MIN_BEYOND) -> float | None:
    """The highest candidate percentile with at least `beyond` samples above it,
    or None when even the lowest candidate lacks them."""
    ok = [p for p in candidates if samples_beyond(n, p) >= beyond]
    return max(ok) if ok else None


def relative_iqr(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
