"""Percentiles and run-to-run spread."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear interpolation between the order statistics at rank
    (n - 1) * pct / 100, counting from 0."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median, with the quartiles of `statistics.quantiles(values, n=4)`."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
