"""Order statistics for the ladder's records."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: Percentiles a timing may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
#: Samples that must lie above a reported percentile.
MIN_SAMPLES_ABOVE = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(values, n=4)``
    gives them (one value is its own quartiles)."""
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def iqr_share(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q3 = quartiles(values)
    middle = median(values)
    return (q3 - q1) / middle if middle else 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * pct / 100.0))
    return float(ordered[rank - 1])


def tail_percentile(count: int) -> Optional[float]:
    """The highest of :data:`TAIL_PERCENTILES` with at least
    :data:`MIN_SAMPLES_ABOVE` of ``count`` samples above it."""
    for pct in TAIL_PERCENTILES:
        # The tolerance absorbs binary rounding of (100 - 99.9).
        if count * (100.0 - pct) / 100.0 >= MIN_SAMPLES_ABOVE - 1e-9:
            return pct
    return None


def summarize(values: Sequence[float]) -> dict:
    """Median, quartiles, count and every raw value."""
    q1, q3 = quartiles(values)
    return {"median": median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": list(values)}
