"""Fieller-type 95% confidence intervals for the indicator ratio.

For a ratio of means R = m_s / m_j with standard errors SE_s, SE_j, the
interval is built from the curvature term

    h = t^2 * (SE_j / m_j)^2

and, when h < 1,

    SE_R   = (R / (1-h)) * sqrt((1-h) * SE_s^2/m_s^2 + SE_j^2/m_j^2)
    bounds = R/(1-h) -/+ t * SE_R

with t the upper critical value of Student's t on n_s + n_j - 2 degrees of
freedom. This is algebraically identical to solving Fieller's quadratic for
the ratio, and collapses to the symmetric delta-method interval
R -/+ t*R*SE_s/m_s as SE_j -> 0. When h >= 1 the denominator is too noisy
for a bounded interval and the estimate is flagged instead of fabricated.

The formula is written once, in ``fieller_interval``, elementwise on
arrays: the split-half engine calls it on [replicates, targets] arrays,
``estimates`` on a list of cells at once, and ``estimate`` on one pair's
scalars; the last two share the status rules in ``_result``.

A "printed" variant, h = t * (SE_j / m_s)^2, goes through the same code for
side-by-side comparison; it is dimensionally inconsistent with the SE
expression above and fails the SE_j -> 0 limit, so "standard" is the
default everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy import special

from .errors import DegenerateField, DomainError
from .model import EstimateStatus, LogStats, MnlcsEstimate

FIELLER_FORMS = ("standard", "printed")


def t_quantile(df, alpha: float = 0.025):
    """Upper critical value t with P(T > t) = alpha for Student-t on df.

    ``df`` may be a number or an array; the result has its shape.
    """
    df = np.asarray(df, dtype=np.float64)
    if (df <= 0).any():
        raise DomainError(f"degrees of freedom must be > 0, got {df}")
    if not 0.0 < alpha <= 0.5:
        raise DomainError(f"alpha must be in (0, 0.5], got {alpha}")
    t = special.stdtrit(df, 1.0 - alpha)
    return float(t) if np.ndim(t) == 0 else t


# t of one pair: callers of ``estimate`` in a loop repeat a few (df, alpha)
_scalar_t = lru_cache(maxsize=4096)(t_quantile)


def fieller_interval(group_mean, group_se, field_mean, field_se, t, form: str = "standard"):
    """(value, low, high, h, se) of the ratio interval, elementwise.

    Inputs broadcast against each other. A zero SE counts as no noise,
    whatever the mean; the printed form gives h = inf where the group mean
    is zero. low, high and se mean something only where h < 1; callers
    flag the rest as unbounded.
    """
    if form not in FIELLER_FORMS:
        raise ValueError(f"unknown form {form!r}, expected one of {FIELLER_FORMS}")
    group_mean, group_se, field_mean, field_se = (
        np.asarray(a, dtype=np.float64) for a in (group_mean, group_se, field_mean, field_se)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        value = group_mean / field_mean
        rel_s2 = np.where(group_se > 0.0, np.square(group_se / group_mean), 0.0)
        rel_j2 = np.where(field_se > 0.0, np.square(field_se / field_mean), 0.0)
        if form == "standard":
            h = t * t * rel_j2
        else:
            h = np.where(group_mean > 0.0, t * np.square(field_se / group_mean), np.inf)
        centre = value / (1.0 - h)
        se = centre * np.sqrt((1.0 - h) * rel_s2 + rel_j2)
        return value, centre - t * se, centre + t * se, h, se


@dataclass(frozen=True)
class CiSettings:
    """Knobs for interval construction.

    alpha is per tail (0.025 gives two-sided 95%). min_group_n is the
    smallest group for which an interval is attempted; smaller groups keep
    their point value but are flagged INSUFFICIENT_DATA.
    """

    alpha: float = 0.025
    form: str = "standard"
    min_group_n: int = 5

    def __post_init__(self):
        if not 0.0 < self.alpha <= 0.5:
            raise DomainError(f"alpha must be in (0, 0.5], got {self.alpha}")
        if self.form not in FIELLER_FORMS:
            raise ValueError(f"unknown form {self.form!r}")
        if self.min_group_n < 2:
            raise ValueError("min_group_n must be >= 2 (standard error needs n >= 2)")


def estimates(
    groups: Sequence[LogStats], fields: Sequence[LogStats], settings: CiSettings = CiSettings()
) -> list[MnlcsEstimate]:
    """estimate() for each (group, field) pair, in one interval call.

    Pairs with a group under ``settings.min_group_n`` or a single-article
    field keep their value and are flagged INSUFFICIENT_DATA; pairs with
    h >= 1 are flagged UNBOUNDED_FIELLER. Bounds stay unclamped.
    """
    field_mean = np.array([f.mean for f in fields], dtype=np.float64)
    if (field_mean <= 0.0).any():
        raise DegenerateField("field mean of ln(1+c) is zero")
    n_group = np.array([g.n for g in groups], dtype=np.intp)
    n_field = np.array([f.n for f in fields], dtype=np.intp)
    enough = (n_group >= settings.min_group_n) & (n_field >= 2)
    # an insufficient pair's t (on df >= 1) and nan se (n == 1) go unused
    t = t_quantile(np.maximum(n_group + n_field - 2, 1), settings.alpha)
    value, low, high, h, se = fieller_interval(
        [g.mean for g in groups], [g.se for g in groups],
        field_mean, [f.se for f in fields], t, settings.form,
    )
    return [
        _result(v, lo, hi, hh, s, g.n, f.n, e)
        for v, lo, hi, hh, s, g, f, e in zip(
            value.tolist(), low.tolist(), high.tolist(), h.tolist(), se.tolist(),
            groups, fields, enough.tolist(),
        )
    ]


def estimate(
    group: LogStats, field: LogStats, settings: CiSettings = CiSettings()
) -> MnlcsEstimate:
    """Full chain: ratio value, t on n_s + n_j - 2 df, Fieller interval.

    The degrees of freedom treat the whole journal (group included) as the
    second sample. Same rules as ``estimates``, on one pair's scalars.
    """
    if field.mean <= 0.0:
        raise DegenerateField("field mean of ln(1+c) is zero")
    enough = group.n >= settings.min_group_n and field.n >= 2
    t = _scalar_t(max(group.n + field.n - 2, 1), settings.alpha)
    interval = fieller_interval(group.mean, group.se, field.mean, field.se, t, settings.form)
    return _result(*(float(x) for x in interval), group.n, field.n, enough)


def _result(value, low, high, h, se, n_group, n_field, enough) -> MnlcsEstimate:
    """MnlcsEstimate from one pair's kernel outputs (Python scalars)."""
    ok = enough and h < 1.0
    return MnlcsEstimate(
        value=value,
        ci_low=low if ok else None,
        ci_high=high if ok else None,
        h=h if enough and math.isfinite(h) else None,
        se_mnlcs=se if ok else None,
        n_group=n_group,
        n_field=n_field,
        status=(
            EstimateStatus.OK if ok
            else EstimateStatus.UNBOUNDED_FIELLER if enough
            else EstimateStatus.INSUFFICIENT_DATA
        ),
    )
