import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from _oracles import estimate_oracle, fieller_oracle, t_upper_quantile
from mnlcs import fieller
from mnlcs.errors import DegenerateField, DomainError
from mnlcs.fieller import (
    FIELLER_FORMS,
    CiSettings,
    estimate,
    estimates,
    fieller_interval,
    t_quantile,
)
from mnlcs.indicator import log_stats, log_stats_from_logs, mnlcs
from mnlcs.model import EstimateStatus, LogStats
from mnlcs.rngtools import stream
from mnlcs.synth import sample_citations

# frozen from the quadrature+bisection oracle (see _oracles.py); the df=1
# value equals the analytic Cauchy quantile tan(0.475*pi)
T_TABLE_025 = {
    1: 12.706204736175,
    2: 4.302652729749,
    5: 2.570581835636,
    8: 2.306004135204,
    10: 2.228138851986,
    30: 2.042272456301,
    100: 1.983971518524,
}


@pytest.mark.parametrize("df,expected", sorted(T_TABLE_025.items()))
def test_t_quantile_against_frozen_oracle(df, expected):
    assert t_quantile(df, 0.025) == pytest.approx(expected, rel=1e-8)


def test_t_quantile_normal_limit():
    assert t_quantile(1e6, 0.025) == pytest.approx(1.959964, abs=1e-4)


def test_t_quantile_median_symmetry():
    assert t_quantile(7, 0.5) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("df,alpha", [(3.5, 0.01), (17, 0.1), (250, 0.025)])
def test_t_quantile_against_live_oracle(df, alpha):
    assert t_quantile(df, alpha) == pytest.approx(t_upper_quantile(df, alpha), rel=1e-8)


def test_t_quantile_domain_errors():
    with pytest.raises(DomainError):
        t_quantile(0, 0.025)
    with pytest.raises(DomainError):
        t_quantile(-3, 0.025)
    with pytest.raises(DomainError):
        t_quantile(5, 0.6)
    with pytest.raises(DomainError):
        t_quantile(5, 0.0)
    with pytest.raises(DomainError):
        t_quantile(np.array([5.0, 0.0]), 0.025)


def test_t_quantile_array_matches_scalar_calls():
    df = np.array([[1, 2, 5], [8, 30, 100]])
    t = t_quantile(df, 0.025)
    assert t.shape == df.shape
    assert t.tolist() == [[t_quantile(d, 0.025) for d in row] for row in df.tolist()]


Interval = namedtuple("Interval", "value low high h se")


def kernel(group, field, t, form="standard"):
    """fieller_interval on one (group, field) pair, as Python floats."""
    return Interval(
        *(float(x) for x in fieller_interval(group.mean, group.se, field.mean, field.se, t, form))
    )


def test_h_is_zero_for_noiseless_field():
    field = LogStats(n=100, mean=1.0, se=0.0)
    assert kernel(field, field, 2.0).h == 0.0


def test_h_direct_arithmetic():
    field = LogStats(n=100, mean=1.0, se=0.05)
    # t^2 * (se/mean)^2 = 4 * 0.0025
    assert kernel(field, field, 2.0).h == pytest.approx(0.01, abs=1e-15)


def test_h_printed_form_uses_group_mean_and_single_t():
    field = LogStats(n=100, mean=1.0, se=0.05)
    group = LogStats(n=10, mean=0.5, se=0.1)
    assert kernel(group, field, 2.0, form="printed").h == pytest.approx(
        2.0 * (0.05 / 0.5) ** 2, abs=1e-15
    )


def test_h_at_threshold_flags_unbounded(monkeypatch):
    # se/mean = 1/t puts h exactly at 1, which no caller accepts as bounded
    field = LogStats(n=100, mean=1.0, se=0.5)
    group = LogStats(n=20, mean=1.0, se=0.1)
    assert kernel(group, field, t=2.0).h == 1.0
    # the same numbers through the library's status rule, with t pinned to 2
    monkeypatch.setattr(fieller, "t_quantile", lambda df, alpha: np.full(np.shape(df), 2.0))
    monkeypatch.setattr(fieller, "_scalar_t", lambda df, alpha: 2.0)  # estimate's cached t
    for est in (estimate(group, field), *estimates([group, group], [field, field])):
        assert est.status is EstimateStatus.UNBOUNDED_FIELLER
        assert est.h == 1.0 and est.value == 1.0
        assert est.ci_low is None and est.ci_high is None and est.se_mnlcs is None
    # one ulp under the threshold is bounded
    below = LogStats(n=100, mean=1.0, se=np.nextafter(0.5, 0.0))
    assert estimate(group, below).h < 1.0
    assert estimate(group, below).status is EstimateStatus.OK
    # an h past 1 keeps its value but gets no bounds
    est = estimate(group, LogStats(n=100, mean=1.0, se=1.0))
    assert est.status is EstimateStatus.UNBOUNDED_FIELLER
    assert est.h > 1.0 and est.value == 1.0
    assert est.ci_low is None and est.ci_high is None


GOLDEN_T = 2.306004135204  # df = 8, alpha = 0.025, from the quadrature oracle

# straight-line script output for field counts [0,1,3,7,2,2,5,1] and
# group counts [1,7], run before this module was implemented
GOLDEN = {
    "value": 1.254421099150118,
    "h": 0.237969923252323,
    "se_mnlcs": 0.798442851706297,
    "ci_low": -0.195055577990812,
    "ci_high": 3.487369457526781,
}


def test_golden_interval():
    field = log_stats([0, 1, 3, 7, 2, 2, 5, 1])
    group = log_stats([1, 7])
    ci = kernel(group, field, GOLDEN_T)
    assert ci.h < 1.0
    assert ci.value == pytest.approx(GOLDEN["value"], abs=1e-12)
    assert ci.h == pytest.approx(GOLDEN["h"], abs=1e-12)
    assert ci.se == pytest.approx(GOLDEN["se_mnlcs"], abs=1e-12)
    assert ci.low == pytest.approx(GOLDEN["ci_low"], abs=1e-12)
    assert ci.high == pytest.approx(GOLDEN["ci_high"], abs=1e-12)
    # estimate's own t on 8 df is GOLDEN_T to 12 digits
    est = estimate(group, field, CiSettings(min_group_n=2))
    assert est.status is EstimateStatus.OK
    assert est.value == ci.value
    assert est.ci_low_reported == 0.0
    assert est.n_group == 2 and est.n_field == 8


def test_golden_interval_matches_quadratic_roots():
    # same interval from Fieller's quadratic in the ratio, solved directly
    field = log_stats([0, 1, 3, 7, 2, 2, 5, 1])
    group = log_stats([1, 7])
    t = GOLDEN_T
    h = t * t * (field.se / field.mean) ** 2
    a = field.mean**2 * (1.0 - h)
    b = -2.0 * group.mean * field.mean
    c = group.mean**2 - t * t * group.se**2
    disc = math.sqrt(b * b - 4 * a * c)
    ci = kernel(group, field, t)
    assert ci.low == pytest.approx((-b - disc) / (2 * a), abs=1e-12)
    assert ci.high == pytest.approx((-b + disc) / (2 * a), abs=1e-12)


def test_zero_field_noise_gives_symmetric_interval():
    group = LogStats(n=40, mean=0.8, se=0.05)
    field = LogStats(n=400, mean=1.0, se=0.0)
    ci = kernel(group, field, t=2.0)
    assert ci.value == 0.8 and ci.h == 0.0
    half = 2.0 * 0.8 * 0.05 / 0.8
    assert ci.low == pytest.approx(0.8 - half, rel=1e-12)
    assert ci.high == pytest.approx(0.8 + half, rel=1e-12)


def test_interval_converges_to_symmetric_limit_as_field_noise_vanishes():
    group = LogStats(n=40, mean=0.8, se=0.05)
    field = LogStats(n=400, mean=1.1, se=1e-12)
    value = 0.8 / 1.1
    ci = kernel(group, field, t=2.1)
    assert ci.value == value
    half = 2.1 * value * 0.05 / 0.8
    assert ci.low == pytest.approx(value - half, rel=1e-9)
    assert ci.high == pytest.approx(value + half, rel=1e-9)


def test_interval_contains_its_centre():
    group = LogStats(n=30, mean=0.9, se=0.08)
    field = LogStats(n=300, mean=1.1, se=0.04)
    # estimate's t is on 30 + 300 - 2 = 328 df
    est = estimate(group, field)
    assert est.value == 0.9 / 1.1
    assert est.status is EstimateStatus.OK
    centre = est.value / (1.0 - est.h)
    assert (est.ci_low + est.ci_high) / 2.0 == pytest.approx(centre)
    assert est.ci_low < centre < est.ci_high


def test_width_monotone_nonincreasing_in_group_size():
    # hold the group sample sd fixed; growing n shrinks both SE_s and t
    sd = 0.6
    field = LogStats(n=500, mean=1.05, se=0.03)
    widths = []
    for n in (5, 10, 20, 50, 100, 400):
        group = LogStats(n=n, mean=0.9, se=sd / math.sqrt(n))
        # t on n + field.n - 2 df
        est = estimate(group, field)
        widths.append(est.ci_high - est.ci_low)
    assert all(w2 <= w1 + 1e-15 for w1, w2 in zip(widths, widths[1:]))


def test_all_zero_group_collapses_to_point_interval_at_zero():
    group = log_stats([0, 0, 0, 0, 0])
    field = log_stats([0, 1, 3, 7, 2, 2, 5, 1])
    ci = kernel(group, field, t=2.2)
    assert ci.h < 1.0
    assert ci.value == 0.0
    assert ci.low == ci.high == 0.0
    est = estimate(group, field)
    assert est.status is EstimateStatus.OK and est.ci_low == est.ci_high == 0.0


def test_degenerate_field_raises():
    group = LogStats(n=5, mean=0.0, se=0.0)
    field = LogStats(n=5, mean=0.0, se=0.0)
    with pytest.raises(DegenerateField):
        estimate(group, field)
    with pytest.raises(DegenerateField):
        estimates([group, group], [LogStats(n=5, mean=1.0, se=0.1), field])


def test_small_samples_flagged_insufficient():
    est = estimate(
        LogStats(n=1, mean=1.0, se=None),
        LogStats(n=50, mean=1.0, se=0.1),
        CiSettings(min_group_n=2),
    )
    assert est.status is EstimateStatus.INSUFFICIENT_DATA
    assert est.ci_low is None


def test_estimate_applies_min_group_threshold():
    field = log_stats([0, 1, 3, 7, 2, 2, 5, 1, 4, 9])
    group = log_stats([1, 7, 3])
    est = estimate(group, field, CiSettings(min_group_n=5))
    assert est.status is EstimateStatus.INSUFFICIENT_DATA
    assert est.value == pytest.approx(mnlcs(group, field))
    est2 = estimate(group, field, CiSettings(min_group_n=3))
    assert est2.status is EstimateStatus.OK


def test_settings_validation():
    with pytest.raises(ValueError):
        CiSettings(form="bogus")
    with pytest.raises(ValueError):
        CiSettings(min_group_n=1)
    with pytest.raises(DomainError):
        CiSettings(alpha=0.7)


def coverage_run(replicates, group_n, field_n, mu, sigma, seed, form="standard"):
    """Fraction of intervals covering the true ratio 1 when group and field
    share one discretised-lognormal distribution (group drawn inside field)."""
    settings = CiSettings(form=form)
    inside = 0
    valid = 0
    for rep in range(replicates):
        rng = stream(seed, "fieller-coverage", rep)
        counts = sample_citations(mu, sigma, field_n, rng)
        logs = np.log1p(counts.astype(float))
        field = log_stats_from_logs(logs)
        if field.mean <= 0:
            continue
        group = log_stats_from_logs(logs[:group_n])
        est = estimate(group, field, settings)
        if est.status is not EstimateStatus.OK:
            continue
        valid += 1
        if est.contains(1.0):
            inside += 1
    return inside / valid, valid


def test_coverage_smoke():
    # quick gross-error check; the full 10k-replicate run lives in the
    # acceptance suite
    fraction, valid = coverage_run(2000, group_n=50, field_n=1000, mu=1.0, sigma=1.0, seed=11)
    assert valid == 2000
    assert 0.93 <= fraction <= 0.975


def test_printed_form_diverges_where_field_noise_matters():
    # the comparison form scales the curvature by t instead of t^2 and
    # divides by the group mean; with a noisy field denominator the two
    # intervals separate clearly
    group = LogStats(n=10, mean=0.5, se=0.15)
    field = LogStats(n=40, mean=1.0, se=0.2)
    value = 0.5
    t = 2.0
    std = kernel(group, field, t, form="standard")
    prn = kernel(group, field, t, form="printed")
    assert std.value == prn.value == value
    assert std.h == pytest.approx(t * t * (0.2 / 1.0) ** 2)
    assert prn.h == pytest.approx(t * (0.2 / 0.5) ** 2)
    assert std.h < 1.0
    assert prn.h > std.h
    assert prn.high > std.high


def test_printed_form_fails_the_vanishing_field_noise_limit():
    # under the printed form h does not vanish with SE_j relative to the
    # delta-method interval when the group mean is small; the standard form
    # is the one that honours the limit (checked above), so here we only pin
    # that both forms agree when SE_j = 0
    group = LogStats(n=40, mean=0.8, se=0.05)
    field = LogStats(n=400, mean=1.0, se=0.0)
    std = kernel(group, field, 2.0, form="standard")
    prn = kernel(group, field, 2.0, form="printed")
    assert std.low == prn.low and std.high == prn.high


# The kernel against the scalar oracle. Stats come from citation counts
# (base 0 or 10^9, so the all-uncited group and close large counts occur)
# or are drawn directly; means are 0 or well away from it so the oracle's
# Python squares cannot overflow.
counts_stats = st.builds(
    lambda base, ks: log_stats([base + k for k in ks]),
    st.sampled_from([0, 10**9]),
    st.lists(st.integers(0, 40), min_size=2, max_size=25),
)
drawn_stats = st.builds(
    lambda mean, se: LogStats(n=2, mean=mean, se=se if mean > 0.0 else 0.0),
    st.one_of(st.just(0.0), st.floats(1e-3, 25.0)),
    st.one_of(st.just(0.0), st.floats(1e-6, 10.0)),
)
stats = st.one_of(counts_stats, drawn_stats)


@st.composite
def interval_cases(draw):
    """(group, field, t), with h exactly 1, h just below 1 and an all-uncited
    group forced in a share of the draws."""
    group = draw(stats)
    field = draw(stats.filter(lambda s: s.mean > 0.0))
    t = draw(st.floats(1.0, 15.0))
    kind = draw(st.sampled_from(["free", "free", "h_one", "h_below_one", "uncited_group"]))
    if kind in ("h_one", "h_below_one"):
        # se/mean = 1/t exactly, or one ulp of se below it
        se = field.mean / 2.0
        if kind == "h_below_one":
            se = math.nextafter(se, 0.0)
        field, t = LogStats(field.n, field.mean, se), 2.0
    elif kind == "uncited_group":
        group = LogStats(group.n, 0.0, 0.0)
    return group, field, t


@given(st.lists(interval_cases(), min_size=1, max_size=8), st.sampled_from(FIELLER_FORMS))
def test_kernel_equals_scalar_oracle(cases, form):
    groups, fields, ts = zip(*cases)
    value, low, high, h, se = fieller_interval(
        np.array([g.mean for g in groups]),
        np.array([g.se for g in groups]),
        np.array([f.mean for f in fields]),
        np.array([f.se for f in fields]),
        np.array(ts),
        form,
    )
    for i, (group, field, t) in enumerate(cases):
        ref = fieller_oracle(group.mean / field.mean, group, field, t, form=form)
        bounded = bool(h[i] < 1.0)
        assert ref.status is (
            EstimateStatus.OK if bounded else EstimateStatus.UNBOUNDED_FIELLER
        )
        assert value[i] == ref.value
        if bounded:
            assert (low[i], high[i], h[i], se[i]) == (ref.ci_low, ref.ci_high, ref.h, ref.se_mnlcs)
        else:
            assert (h[i] if np.isfinite(h[i]) else None) == ref.h
        if form == "printed" and group.mean == 0.0:
            assert h[i] == math.inf and ref.status is EstimateStatus.UNBOUNDED_FIELLER


any_size_stats = st.builds(
    lambda base, ks: log_stats([base + k for k in ks]),
    st.sampled_from([0, 10**9]),
    st.lists(st.integers(0, 40), min_size=1, max_size=12),
)


@given(
    st.lists(
        st.tuples(any_size_stats, any_size_stats.filter(lambda s: s.mean > 0.0)),
        min_size=1,
        max_size=8,
    ),
    st.sampled_from(FIELLER_FORMS),
    st.sampled_from([2, 3, 5]),
)
# a pair whose printed h is one ulp off if a scalar squares with pow()
@example(
    [(log_stats([17, 20, 23]), LogStats(n=12, mean=3.0456965219949965, se=0.1191043947051477))],
    "printed",
    2,
)
def test_estimates_equal_scalar_oracle_with_mixed_statuses(pairs, form, min_group_n):
    settings = CiSettings(form=form, min_group_n=min_group_n)
    groups, fields = zip(*pairs)
    assert estimates(groups, fields, settings) == [
        estimate_oracle(group, field, settings) for group, field in pairs
    ]
    assert [estimate(group, field, settings) for group, field in pairs] == estimates(
        groups, fields, settings
    )


def test_estimates_mixed_statuses_in_one_call():
    field = LogStats(n=300, mean=1.0, se=0.05)
    groups = [
        LogStats(n=40, mean=0.9, se=0.1),  # ok
        LogStats(n=3, mean=0.9, se=0.1),  # under min_group_n
        LogStats(n=40, mean=0.0, se=0.0),  # printed form: h = inf
        LogStats(n=40, mean=0.04, se=0.01),  # printed form: h >= 1
    ]
    ests = estimates(groups, [field] * 4, CiSettings(form="printed"))
    assert [e.status for e in ests] == [
        EstimateStatus.OK,
        EstimateStatus.INSUFFICIENT_DATA,
        EstimateStatus.UNBOUNDED_FIELLER,
        EstimateStatus.UNBOUNDED_FIELLER,
    ]
    assert ests[2].h is None and ests[3].h >= 1.0
    assert ests == [estimate_oracle(g, field, CiSettings(form="printed")) for g in groups]
