"""Summary statistics used by the report and by ``compare.py``."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: percentiles the report may print, highest first, each with the
#: share of samples beyond it in thousandths (integers: the rule below
#: must not depend on float rounding)
PERCENTILES = ((99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (50.0, 500))
#: a percentile is printed only with this many samples beyond it
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """``p``-th percentile by linear interpolation between order
    statistics (``p`` in percent)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(values)
    rank = (p / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (rank - low) * (ordered[high] - ordered[low])


def highest_supported_percentile(count: int) -> Optional[float]:
    """The highest of :data:`PERCENTILES` with at least
    :data:`MIN_SAMPLES_BEYOND` of ``count`` samples beyond it, or
    ``None`` when even the median has fewer (``count`` < 20)."""
    for p, beyond_per_mille in PERCENTILES:
        if count * beyond_per_mille >= MIN_SAMPLES_BEYOND * 1000:
            return p
    return None


def summarise(values: Sequence[float]) -> Dict[str, object]:
    """Median with min/max, sample count and the samples themselves."""
    values = [float(v) for v in values]
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": values,
    }


def iqr_share(values: Sequence[float]) -> Optional[float]:
    """Distance between the first and third quartile as a share of the
    median -- the spread rule the benchmark contract uses.  ``None``
    with fewer than two samples or a zero median."""
    values = [float(v) for v in values]
    if len(values) < 2:
        return None
    median = statistics.median(values)
    if median == 0.0:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return abs(q3 - q1) / abs(median)
