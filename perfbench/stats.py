"""Order statistics shared by the benchmark's reports."""

from __future__ import annotations

import math
import statistics


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p percent of
    the samples at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1]


def beyond(n: int, p: float) -> int:
    """Samples that lie strictly past the nearest-rank p-th percentile of n."""
    return n - max(1, math.ceil(p / 100.0 * n))


def median(values) -> float:
    """Median, or 0.0 for a layer that was never called."""
    return float(statistics.median(values)) if values else 0.0


def ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when the denominator counts nothing."""
    return num / den if den else 0.0
