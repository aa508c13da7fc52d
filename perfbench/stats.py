"""Summaries of timing samples: the tail-percentile rule and medians.

A tail percentile is only reported when at least :data:`MIN_BEYOND`
samples lie beyond it, so a p99 always rests on ten or more slow
requests rather than on one unlucky sample.
"""

from __future__ import annotations

import math
import statistics

#: Fewest samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

#: Percentiles considered, from the median outwards.
PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)


def rank(n: int, pct: float) -> int:
    """1-based nearest rank of the ``pct`` percentile among ``n``
    samples: ``ceil(pct/100 * n)`` (rounded first, so 99.9% of 10000
    is rank 9990, not 9991)."""
    return max(1, math.ceil(round(pct / 100.0 * n, 9)))


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[rank(len(ordered), pct) - 1]


def beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie strictly beyond the nearest-rank
    ``pct`` percentile."""
    return n - rank(n, pct)


def supported(n: int, pct: float) -> bool:
    """True when ``n`` samples put at least :data:`MIN_BEYOND` beyond
    the ``pct`` percentile."""
    return beyond(n, pct) >= MIN_BEYOND


def highest_percentile(samples) -> tuple[float, float, int]:
    """The highest percentile in :data:`PERCENTILES` with at least
    :data:`MIN_BEYOND` samples beyond it, as ``(pct, value, n)``.

    Falls back to the median when even that is unsupported; the caller
    reports ``n`` either way.
    """
    n = len(samples)
    chosen = PERCENTILES[0]
    for pct in PERCENTILES:
        if supported(n, pct):
            chosen = pct
    return chosen, percentile(samples, chosen), n


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def tail_summary(samples) -> dict:
    """``{n, p50, tail_pct, tail}`` for a list of samples."""
    if not samples:
        return {"n": 0, "p50": 0.0, "tail_pct": 50.0, "tail": 0.0}
    pct, value, n = highest_percentile(samples)
    return {"n": n, "p50": percentile(samples, 50.0),
            "tail_pct": pct, "tail": value}
