"""MNLCS point estimate.

The indicator is the ratio of the group mean to the whole-field mean of the
log-transformed citation counts ln(1+c), so 1.0 means the group sits exactly
at the field average. The field denominator always includes the group's own
articles. Means use compensated summation (math.fsum); journal-year cohorts
reach 10^4 articles and naive accumulation loses digits there.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .errors import DegenerateField, InsufficientData
from .model import LogStats


def log_moments(logs: np.ndarray) -> tuple[int, float, float]:
    """(n, mean, se) of non-empty ln(1+c) values, se NaN when n == 1. The sums
    are math.fsum of ``tolist()``: the array's own doubles, iterated faster."""
    n = len(logs)
    mean = math.fsum(logs.tolist()) / n
    if n == 1:
        return 1, mean, math.nan
    centred = logs - mean
    return n, mean, math.sqrt(math.fsum((centred * centred).tolist()) / (n - 1) / n)


def log_stats_from_logs(logs: np.ndarray) -> LogStats:
    """LogStats from precomputed ln(1+c) values (fast path for resampling)."""
    if len(logs) == 0:
        raise InsufficientData("cannot summarise an empty sample")
    n, mean, se = log_moments(logs)
    return LogStats(n=n, mean=mean, se=None if n == 1 else se)


def log_stats(citations: Iterable[int]) -> LogStats:
    """Mean and standard error of ln(1+c) over raw citation counts."""
    counts = np.asarray(list(citations), dtype=np.float64)
    if counts.size and counts.min() < 0:
        raise ValueError("citation counts must be non-negative")
    return log_stats_from_logs(np.log1p(counts))


def mnlcs(group: LogStats, field: LogStats) -> float:
    """Ratio of group to field mean of ln(1+c).

    Raises DegenerateField when the field mean is zero (every article in the
    journal-year uncited), which leaves the ratio undefined.
    """
    if field.mean <= 0.0:
        raise DegenerateField("field mean of ln(1+c) is zero")
    return group.mean / field.mean
