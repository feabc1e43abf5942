"""Arithmetic behind the reported figures: medians, tail percentiles, span
coverage and rates. Pure functions over plain numbers."""
from __future__ import annotations

import statistics

#: candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(samples, min_beyond: int = 10) -> tuple[float, float, int, int] | None:
    """Highest candidate percentile with at least ``min_beyond`` samples above it.

    Uses the nearest-rank definition: the p-th percentile of n sorted samples
    is the k-th smallest with k = ceil(p/100 * n), and the samples beyond it
    are the n - k larger-ranked ones. Returns (percentile, value, beyond, n),
    or None when no candidate leaves ``min_beyond`` samples beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        tenths = round(p * 10)  # exact integer rank: p/100 * n in float can round up a whole rank
        k = max(1, -(-tenths * n // 1000))
        if n - k >= min_beyond:
            return p, float(ordered[k - 1]), n - k, n
    return None


def covered_time(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def gmacs_per_second(passes) -> float:
    """MAC rate over timed passes given as (macs, seconds) pairs, in GMAC/s.

    The rate is total MACs over total time, so long passes weigh by their
    time rather than each pass counting once.
    """
    macs = sum(m for m, _ in passes)
    seconds = sum(s for _, s in passes)
    return macs / seconds / 1e9
