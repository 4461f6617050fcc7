"""Order statistics for the benchmark's reports (no dependency on ``repro``)."""

from __future__ import annotations

import statistics
from typing import Sequence

__all__ = ["percentile", "highest_supported_percentile", "summarize", "spread"]

#: Percentiles a report may name, lowest first.
CANDIDATE_PERCENTILES = (50.0, 90.0, 99.0, 99.9)

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile by linear interpolation between ranks."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"pct must be in [0, 100], got {pct}")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def highest_supported_percentile(count: int) -> float:
    """The highest candidate percentile with >= 10 of ``count`` samples beyond.

    The median is the floor: it is reported however few samples there are.
    """
    supported = CANDIDATE_PERCENTILES[0]
    for pct in CANDIDATE_PERCENTILES:
        # In whole per-mille, so that 10 000 samples support p99.9 exactly.
        if count * (1000 - round(pct * 10)) >= MIN_SAMPLES_BEYOND * 1000:
            supported = pct
    return supported


def summarize(samples: Sequence[float]) -> dict[str, float]:
    """Median, p99, the sample count and the highest percentile it supports.

    ``p99`` is always computed because the metric names are fixed; a reader
    compares ``supported_pct`` with 99 to see whether the sample carries it.
    """
    return {
        "n": len(samples),
        "p50": percentile(samples, 50.0),
        "p99": percentile(samples, 99.0),
        "supported_pct": highest_supported_percentile(len(samples)),
    }


def spread(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles, (q3 - q1)/median and (max - min)/median of runs."""
    if len(values) < 2:
        raise ValueError("spread needs at least two runs")
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median if median else 0.0,
        "range_share": (max(values) - min(values)) / median if median else 0.0,
    }
