"""Aggregation helpers: timing percentiles and ratios with bases.

Pure functions over plain numbers, so the tests can pin the rules the
record is built on without running a workload.
"""

from __future__ import annotations

import math
import statistics

#: Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile must leave at least this many samples above it.
MIN_BEYOND = 10


def nearest_rank(sorted_samples: list[float], q: float) -> tuple[int, float]:
    """1-based nearest rank of percentile ``q`` and the sample there."""
    n = len(sorted_samples)
    # The epsilon keeps float noise (99.9 / 100 * 10000 = 9990.000...2)
    # from pushing an exact rank up by one.
    rank = max(1, math.ceil(q * n / 100.0 - 1e-9))
    return rank, sorted_samples[rank - 1]


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """``(q, value)``: the highest candidate percentile with at least
    :data:`MIN_BEYOND` samples strictly beyond its rank, or ``(0, 0)``
    when even the median has fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in TAIL_CANDIDATES:
        if not n:
            break
        rank, value = nearest_rank(ordered, q)
        if n - rank >= MIN_BEYOND:
            return q, value
    return 0.0, 0.0


def timing(samples: list[float]) -> dict:
    """Median, tail percentile and sample count of one timed call site."""
    q, tail = tail_percentile(samples)
    return {
        "n": len(samples),
        "p50": statistics.median(samples) if samples else 0.0,
        "ptail": tail,
        "ptail_q": q,
    }


def ratio(numerator: float, base: float, base_name: str) -> dict:
    """A ratio that carries its base; 0 (with the zero base shown) when
    the base is empty."""
    return {
        "value": numerator / base if base else 0.0,
        "numerator": numerator,
        "base": base,
        "base_name": base_name,
    }

