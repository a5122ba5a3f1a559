"""MNLCS point estimate.

The indicator is the ratio of the group mean to the whole-field mean of the
log-transformed citation counts ln(1+c), so 1.0 means the group sits exactly
at the field average. The field denominator always includes the group's own
articles. A group's mean and SE have one kernel, ``segment_moments``, which
takes many groups at once, one segment each (a run's cells), or one
(``log_stats_from_logs``). Every sum in it is correctly rounded, the value
math.fsum gives (``segment_fsums``); journal-year cohorts reach 10^4
articles and naive accumulation loses digits there.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .errors import DegenerateField, InsufficientData
from .model import LogStats


def segment_fsums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """math.fsum of each segment of float64 ``values``, bit for bit: segment i
    runs from starts[i] to starts[i + 1], the last to the end; none is empty.

    Two of Rump, Ogita and Oishi's error-free splitting passes. With sigma a
    power of two above a segment's length times its largest |r|, the
    remainders still to add, q = (sigma + r) - sigma is r rounded to a
    multiple of sigma * 2**-53 without error, and r - q is exact. Below
    2**26 values every partial sum of a segment's q is such a multiple no
    larger than sigma, so np.add.reduceat adds them exactly in any order. A
    segment whose remainders are all zero after two passes sums exactly to
    the two pass totals, and their one addition rounds that correctly, as
    fsum does. The rare segment with a remainder left, or of 2**26 values or
    more, takes math.fsum itself, and so does a call with one segment.
    """
    if len(starts) == 1:
        return np.array([math.fsum(values.tolist())])
    lengths = np.diff(starts, append=len(values))
    _, length_exp = np.frexp(lengths)
    r, total = values.copy(), np.zeros(len(starts))
    for _ in range(2):
        _, exp = np.frexp(np.maximum.reduceat(np.abs(r), starts))
        sigma = np.repeat(np.ldexp(1.0, length_exp + exp), lengths)
        q = (sigma + r) - sigma
        r -= q
        total += np.add.reduceat(q, starts)
    redo = (np.maximum.reduceat(np.abs(r), starts) > 0.0) | (lengths >= 2**26)
    for i in np.flatnonzero(redo).tolist():
        total[i] = math.fsum(values[starts[i]:starts[i] + lengths[i]].tolist())
    return total


def segment_moments(logs: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(means, ses) of consecutive segments of ln(1+c) values, segment i of
    ``counts[i]`` values and none empty; se is NaN where n == 1. Both sums,
    of the values and of their squares about the segment's mean, are
    ``segment_fsums``, so every mean and se is the one math.fsum gives."""
    starts = np.cumsum(counts) - counts
    means = segment_fsums(logs, starts) / counts
    centred = logs - np.repeat(means, counts)
    with np.errstate(invalid="ignore"):  # 0 / 0 where n == 1
        ses = np.sqrt(segment_fsums(centred * centred, starts) / (counts - 1) / counts)
    return means, ses


def log_stats_from_logs(logs: np.ndarray) -> LogStats:
    """LogStats from precomputed ln(1+c) values: ``segment_moments`` on one segment."""
    n = len(logs)
    if n == 0:
        raise InsufficientData("cannot summarise an empty sample")
    means, ses = segment_moments(logs, np.array([n]))
    return LogStats(n=n, mean=means.item(), se=None if n == 1 else ses.item())


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
