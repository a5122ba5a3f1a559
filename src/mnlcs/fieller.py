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
arrays: the split-half engine calls it on [replicates, targets] arrays and
``interval_columns`` on the columns of every cell of a run at once, with
the rules for enough data, the degrees of freedom and a degenerate field.
``estimate`` is ``interval_columns`` on one pair and alone builds an
``MnlcsEstimate``; a run's cells stay arrays (``stability.CellGrid``).

A "printed" variant, h = t * (SE_j / m_s)^2, goes through the same code for
side-by-side comparison; it is dimensionally inconsistent with the SE
expression above and fails the SE_j -> 0 limit, so "standard" is the
default everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
            raise DomainError(f"unknown form {self.form!r}")
        if self.min_group_n < 2:
            raise DomainError("min_group_n must be >= 2 (standard error needs n >= 2)")


DEFAULT_SETTINGS = CiSettings()


# status codes of the array paths: an index into STATUSES
STATUSES = (EstimateStatus.OK, EstimateStatus.UNBOUNDED_FIELLER, EstimateStatus.INSUFFICIENT_DATA)
OK, UNBOUNDED, INSUFFICIENT = range(len(STATUSES))


def interval_columns(n_group, group_mean, group_se, n_field, field_mean, field_se,
                     settings: CiSettings = DEFAULT_SETTINGS):
    """(value, low, high, h, se, status) arrays of many pairs, from one
    interval call on their columns (group se NaN where n == 1). Pairs with a
    group under ``settings.min_group_n`` or a single-article field keep their
    value and are flagged INSUFFICIENT_DATA; pairs with h >= 1 are flagged
    UNBOUNDED_FIELLER. Only OK pairs keep bounds and se, NaN elsewhere; h is
    kept where there is enough data and it is finite. Bounds stay unclamped.
    """
    n_group, n_field, field_mean = (np.asarray(a) for a in (n_group, n_field, field_mean))
    if (field_mean <= 0.0).any():
        raise DegenerateField("field mean of ln(1+c) is zero")
    enough = (n_group >= settings.min_group_n) & (n_field >= 2)
    # t once per distinct df; an insufficient pair's t (on df >= 1) goes unused
    df, pick = np.unique(np.maximum(n_group + n_field - 2, 1), return_inverse=True)
    t = t_quantile(df, settings.alpha)[pick]
    value, low, high, h, se = fieller_interval(group_mean, group_se, field_mean, field_se, t,
                                               settings.form)
    ok = enough & (h < 1.0)
    status = np.int8(INSUFFICIENT) - enough - ok  # OK = 0 < UNBOUNDED < INSUFFICIENT = 2
    keep = np.where(ok, 1.0, np.nan)  # x * 1.0 is x, -0.0 and inf included
    h = np.where(enough & (h < np.inf), h, np.nan)  # h is >= 0, +inf or NaN
    return value, low * keep, high * keep, h, se * keep, status


def estimate(
    group: LogStats, field: LogStats, settings: CiSettings = DEFAULT_SETTINGS
) -> MnlcsEstimate:
    """``interval_columns`` on one pair, as Python numbers: bounds and se are
    None unless OK, h is None where NaN. The t on n_s + n_j - 2 df treats
    the whole journal (group included) as the second sample."""
    value, low, high, h, se, status = (column[0].item() for column in interval_columns(
        [group.n], [group.mean], [group.se], [field.n], [field.mean], [field.se], settings,
    ))
    ok = status == OK
    return MnlcsEstimate(
        value, low if ok else None, high if ok else None, None if math.isnan(h) else h,
        se if ok else None, group.n, field.n, STATUSES[status],
    )
