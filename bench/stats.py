"""Summary statistics for benchmark samples.

A timing is reported as its median plus the highest tail percentile that
still has at least ten samples beyond it, together with the sample count.
"""

from __future__ import annotations

import math
import statistics

TAIL_PERCENTILES = (90.0, 99.0, 99.9)
MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """Highest percentile of TAIL_PERCENTILES with >= MIN_BEYOND of n samples
    beyond it, or None when even the lowest has fewer."""
    best = None
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with >= p% of samples at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(values: list[float]) -> dict:
    """Median, quartiles, sample count and (when it exists) the tail percentile."""
    if not values:
        raise ValueError("no samples")
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
    p = tail_percentile(len(values))
    if p is not None:
        out[f"p{p:g}"] = percentile(values, p)
    return out


def relative_spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
