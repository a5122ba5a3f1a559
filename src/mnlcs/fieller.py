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
``MnlcsEstimate``; a run's cells stay arrays (``stability.CellGrid``). All
of them read t by df from ``t_memo``, one table per alpha of t on every
whole df up to the largest asked, grown in one ``t_quantile`` call. A
status code indexes ``STATUSES``, and ``STATUS_TEXT``, the one table of
status texts in the outputs, holds "missing" at -1, where there is no cell.

``t_quantile`` computes t with numpy and the standard library alone. From
Hill's (1970) approximation it takes Newton steps on ln P(T > t) against
ln t, each df until its own step falls below 1e-10. The tail
2 P(T > t) = I_x(df/2, 1/2), x = df / (df + t^2), is a sum of terms of one
sign: upward-recurrence terms to a >= 15, then DiDonato & Morris's BGRAT
expansion (ACM TOMS 708), so it keeps its relative accuracy where 1 - I
would cancel at large df. Above alpha 0.25 two last steps on the series of
P(0 < T < t) avoid the cancellation near the median. Against 50-digit
values t is within about 3 ulps from 10 df up and 9 ulps from 1 df up
(more below 1 df, where t reacts to alpha as 1/df); against scipy's
``stdtrit``, which strays by up to 62 ulps itself, within 8 ulps from 10 df up.

A "printed" variant, h = t * (SE_j / m_s)^2, goes through the same code for
side-by-side comparison; it is dimensionally inconsistent with the SE
expression above and fails the SE_j -> 0 limit, so "standard" is the
default everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateField, DomainError
from .model import EstimateStatus, LogStats, MnlcsEstimate

FIELLER_FORMS = ("standard", "printed")


_BGRAT_MIN_A = 15.0  # the BGRAT expansion needs a >= 15; smaller a are stepped up to it
_DF_NORMAL = 1e20  # from here on t is the normal quantile to double precision
_ERFC = np.frompyfunc(math.erfc, 1, 1)


def _bgrat_coefficients(terms: int) -> tuple[float, ...]:
    """d_1..d_terms of DiDonato & Morris's BGRAT expansion (ACM TOMS 708) at b = 1/2."""
    c, d = [1.0], []
    for n in range(1, terms + 1):
        c.append(c[-1] / (2 * n * (2 * n + 1)))
        d.append(-0.5 * c[n] + sum((i / 2 - n) * c[i] * d[n - i - 1] for i in range(1, n)) / n)
    return tuple(d)


_BGRAT_D = _bgrat_coefficients(12)


def _normal_quantile(alpha: float) -> float:
    """z with P(Z > z) = alpha < 0.5: Abramowitz & Stegun 26.2.23, polished
    by Halley steps on math.erfc."""
    u = math.sqrt(-2.0 * math.log(alpha))
    z = u - (2.515517 + (0.802853 + 0.010328 * u) * u) / (
        1.0 + (1.432788 + (0.189269 + 0.001308 * u) * u) * u)
    for _ in range(3):
        gap = 0.5 * math.erfc(z / math.sqrt(2.0)) - alpha
        step = gap * math.sqrt(2.0 * math.pi) * math.exp(0.5 * z * z)
        z += step / (1.0 - 0.5 * z * step)
    return z


def _hill_start(nu, alpha: float, z: float):
    """Hill's (1970, CACM algorithm 396) approximation to t on nu >= 3 df,
    within about 1e-4 relative; z is the normal quantile of alpha."""
    a = 1.0 / (nu - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * np.sqrt(a * math.pi / 2.0) * nu
    y = (2.0 * alpha * d) ** (2.0 / nu)
    tail = ((1.0 / (((nu + 6.0) / (nu * y) - 0.089 * d - 0.822) * (nu + 2.0) * 3.0)
             + 0.5 / (nu + 4.0)) * y - 1.0) * (nu + 1.0) / (nu + 2.0) + 1.0 / y
    c += np.where(nu < 5.0, 0.3 * (nu - 4.5) * (z + 0.6), 0.0)
    c = (((0.05 * d * z - 5.0) * z - 7.0) * z - 2.0) * z + b + c
    w = z * z
    body = ((((0.4 * w + 6.3) * w + 36.0) * w + 94.5) / c - w - 3.0) / b + 1.0
    body = np.expm1(a * np.square(body * z))
    return np.sqrt(nu * np.where(y > 0.05 + a, body, tail))


def _tail_terms(nu):
    """The t-independent terms on each df: a = nu / 2, the number m of steps
    up to A = a + m >= 15, A, r = Gamma(a + 1/2) / (Gamma(a) sqrt(a)) and
    Gamma(A + 1/2) / (Gamma(A) sqrt(A - 1/4)) - 1."""
    a = 0.5 * nu
    m = np.ceil(np.maximum(_BGRAT_MIN_A - a, 0.0))
    big_a = a + m
    # r(a) = r(A) sqrt(A / a) prod_k (a + k) / (a + k + 1/2); both products are exact on whole df
    num, den = np.ones_like(a), np.ones_like(a)
    for k in range(int(m.max(initial=0))):
        num, den = np.where(k < m, (num * (a + k), den * (a + k + 0.5)), (num, den))
    r2 = 1.0 / (big_a * big_a)  # Stirling series of ln(Gamma(A + 1/2) / (Gamma(A) sqrt(A)))
    series = (((((691 / 180224 * r2 - 31 / 18432) * r2 + 17 / 14336) * r2 - 1 / 640) * r2
               + 1 / 192) * r2 - 1 / 8) / big_a
    return (a, m, big_a, np.exp(series) * np.sqrt(big_a / a) * num / den,
            np.expm1(series - 0.5 * np.log1p(-0.25 / big_a)))


def _upper_tail(t, nu, a, m, big_a, r, scale_m1):
    """(P(T > t), density at t) on nu df, t > 0, from the terms of ``_tail_terms``.

    2 P(T > t) = I_x(a, 1/2) with x = nu / (nu + t^2), the regularised
    incomplete beta, here the m upward-recurrence terms
    x^(a+i) (1-x)^(1/2) / ((a+i) B(a+i, 1/2)) plus I_x(A, 1/2) by BGRAT. Both
    are sums of terms of one sign, so the tail keeps its relative accuracy
    where 1 - I would cancel.
    """
    s = t * t / nu
    log_x = -np.log1p(s)
    x = 1.0 / (1.0 + s)
    scale = r * t / np.sqrt(math.pi * a * (nu + t * t))
    steps = np.zeros_like(t)
    for i in range(int(m.max(initial=0))):
        # x^(a+i) from ln x while x > 1/2 and from x below, where each is the more exact
        x_pow = np.where(s < 1.0, np.exp((a + i) * log_x), x ** (a + i))
        steps += np.where(i < m, scale * x_pow, 0.0)
        scale *= (a + 0.5 + i) / (a + 1.0 + i)
    # BGRAT with b = 1/2: the incomplete gamma ratio Q(1/2, z) is erfc(sqrt(z))
    shift = big_a - 0.25
    z = -shift * log_x
    q = _ERFC(np.sqrt(z)).astype(np.float64)
    power = np.sqrt(z / math.pi) * np.exp(-z)
    j, series = q, np.zeros_like(t)
    for n, d in enumerate(_BGRAT_D, start=1):
        b2 = 2.0 * n - 1.5
        j = (b2 * (b2 + 1.0) * j + (z + b2 + 1.0) * power) * (0.25 / (shift * shift))
        power *= 0.25 * log_x * log_x
        series += d * j
    density = r * np.exp((a + 0.5) * log_x) / math.sqrt(2.0 * math.pi)
    return 0.5 * (q + (steps + series + scale_m1 * (q + series))), density


def _central(t, nu, a, r):
    """(P(0 < T < t), density at t) on nu df, for t^2 <= nu.

    2 P(0 < T < t) = I_y(1/2, a) with y = t^2 / (nu + t^2), by its
    hypergeometric series (DLMF 8.17.8), whose terms shrink at least as y <= 1/2.
    """
    s = t * t / nu
    y = s / (1.0 + s)
    log_x = -np.log1p(s)
    term = r * np.exp(a * log_x) * np.sqrt(a * y / math.pi)
    total = np.zeros_like(t)
    for n in range(200):
        total += term
        if (term <= 1e-17 * total).all():
            break
        term *= y * (a + 0.5 + n) / (n + 1.5)
    return total, r * np.exp((a + 0.5) * log_x) / math.sqrt(2.0 * math.pi)


def t_quantile(df, alpha: float = 0.025):
    """Upper critical value t with P(T > t) = alpha for Student-t on df.

    ``df`` may be a number or an array; the result has its shape. t solves
    P(T <= t) = 1 - alpha with 1 - alpha rounded to double, as scipy's
    ``stdtrit(df, 1 - alpha)`` does.
    """
    df = np.asarray(df, dtype=np.float64)
    if not (df > 0).all():
        raise DomainError(f"degrees of freedom must be > 0, got {df}")
    if not 0.0 < alpha <= 0.5:
        raise DomainError(f"alpha must be in (0, 0.5], got {alpha}")
    t = _t_values(df.ravel(), alpha).reshape(df.shape)
    return float(t) if t.ndim == 0 else t


_T_MEMO: dict[float, np.ndarray] = {}  # alpha -> t on df 1, 2, ... at index df (0 is NaN)


def t_memo(df, alpha: float) -> np.ndarray:
    """``t_quantile`` on an array of whole df >= 1, read from the table at
    this alpha; a df past its end grows it to that df in one call."""
    df = np.asarray(df, dtype=np.int64)
    if df.min(initial=1) < 1:
        raise DomainError(f"degrees of freedom must be > 0, got {df}")
    table = _T_MEMO.get(alpha, np.full(1, np.nan))
    if df.max(initial=0) >= len(table):
        grown = t_quantile(np.arange(len(table), df.max() + 1), alpha)
        table = _T_MEMO[alpha] = np.concatenate((table, grown))
    return table[df]


def _t_values(df, alpha: float):
    """``t_quantile`` on a 1-d array of valid df."""
    alpha = 1.0 - (1.0 - alpha)
    nu = np.minimum(df, _DF_NORMAL)
    t = np.full_like(nu, np.inf if alpha == 0.0 else 0.0)  # 1 - alpha rounded to 1 or 0.5
    if 0.0 < alpha < 0.5:
        terms = _tail_terms(nu)
        a, r = terms[0], terms[3]
        hill = nu >= 3.0
        t[hill] = _hill_start(nu[hill], alpha, _normal_quantile(alpha))
        # t whose square overflows comes out NaN
        with np.errstate(over="ignore", invalid="ignore"):
            # under 3 df, start from the bound on t that
            # P(T > t) < Gamma(a + 1/2) nu^(a-1) t^-nu / (Gamma(a) sqrt(pi)) gives
            small = ~hill
            lead = np.log(r[small] * np.sqrt(a[small] / math.pi) / alpha)
            t[small] = np.exp((lead + (a[small] - 1.0) * np.log(nu[small])) / nu[small])
            # Newton on ln P(T > t) against ln t, per df until its step is below 1e-10
            todo = np.arange(nu.size)
            for _ in range(60):
                if not todo.size:
                    break
                tail, density = _upper_tail(t[todo], nu[todo], *(term[todo] for term in terms))
                step = np.log1p((tail - alpha) / alpha) * tail / (density * t[todo])
                t[todo] += t[todo] * np.expm1(step)
                todo = todo[np.abs(step) > 1e-10]
        if np.isnan(t).any():
            raise DomainError(f"t for alpha {alpha} on df {df} is beyond 1e154")
        if alpha > 0.25:  # near the median the tail cancels: polish on P(0 < T < t)
            near = t * t <= nu
            for _ in range(2):
                inner, density = _central(t[near], nu[near], a[near], r[near])
                t[near] += (0.5 - alpha - inner) / density
    return t


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
STATUS_TEXT = (*(status.value for status in STATUSES), "missing")


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
    # an insufficient pair's t (on df >= 1) goes unused
    t = t_memo(np.maximum(n_group + n_field - 2, 1), settings.alpha)
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
