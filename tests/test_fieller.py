import math
import os
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

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
    fieller_interval,
    STATUSES,
    interval_columns,
    t_quantile,
)
from mnlcs.indicator import log_stats, log_stats_from_logs, mnlcs
from mnlcs.model import EstimateStatus, LogStats, MnlcsEstimate
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
    with pytest.raises(DomainError):
        t_quantile(float("nan"), 0.025)
    with pytest.raises(DomainError):
        t_quantile(np.array([5.0, np.nan]), 0.025)


# Exact quantiles (mpmath, 50 digits) for the upper tail 1 - (1 - alpha) in
# double, which is what t_quantile solves for
T_EXACT = [
    (1, 0.025, 12.706204736174693314),
    (2, 0.005, 9.9248432009182886403),
    (3.5, 0.1, 1.5765766051364052678),
    (6, 0.005, 3.7074280213247790741),
    (10, 0.25, 0.69981206131243162734),
    (17.25, 0.05, 1.7381574030065231152),
    (30, 0.45, 0.12672961313207370748),
    (150, 0.025, 1.9759053308966201312),
    (250.5, 0.025, 1.9694792720516759696),
    (600, 0.49, 0.025079362380435348779),
    (3000, 0.005, 2.5774691348386079816),
    (1e6, 0.25, 0.67448999553108737862),
    (math.inf, 0.025, 1.9599639845400538556),
    (math.inf, 0.4, 0.25334710313579974132),
]


@pytest.mark.parametrize("df,alpha,exact", T_EXACT)
def test_t_quantile_within_two_ulps_of_exact(df, alpha, exact):
    assert abs(t_quantile(df, alpha) - exact) <= 2 * np.spacing(exact)


def test_t_quantile_matches_scipy_stdtrit():
    # stdtrit itself strays from the exact quantile by up to 62 ulps below
    # 10 df (df 6, alpha 0.005) and 8 from 10 df on (df 966, alpha 0.25)
    special = pytest.importorskip("scipy.special")
    df = np.concatenate([np.arange(1.0, 3001.0), np.logspace(0.0, 6.0, 200), [3.5, 17.25, 250.5, np.inf]])
    for alpha in (0.005, 0.025, 0.05, 0.1, 0.25, 0.5):
        got, want = t_quantile(df, alpha), special.stdtrit(df, 1.0 - alpha)
        ulps = np.abs(got - want) / np.spacing(want)
        assert ulps[df < 10].max() <= 64, alpha
        assert ulps[df >= 10].max() <= 8, alpha


def test_t_quantile_array_matches_scalar_calls():
    df = np.array([[1, 2, 5], [8, 30, 100]])
    t = t_quantile(df, 0.025)
    assert t.shape == df.shape
    assert t.tolist() == [[t_quantile(d, 0.025) for d in row] for row in df.tolist()]


@pytest.mark.parametrize("alpha", [0.005, 0.025, 0.3, 0.5])
def test_t_memo_matches_t_quantile(monkeypatch, alpha):
    # a fresh memo filled piecemeal: empty, then unsorted with repeats, then
    # every df at once, seen and unseen mixed
    monkeypatch.setattr(fieller, "_T_MEMO", {})
    df = np.arange(1, 2101)
    want = t_quantile(df, alpha)
    assert fieller.t_memo(np.array([], dtype=np.int64), alpha).shape == (0,)
    some = np.random.default_rng(1).permutation(df)[:600].reshape(2, 300)
    some = np.concatenate([some, some[:, ::-1]], axis=1)
    np.testing.assert_array_equal(fieller.t_memo(some, alpha), want[some - 1])
    np.testing.assert_array_equal(fieller.t_memo(df[::-1], alpha), want[::-1])
    np.testing.assert_array_equal(fieller.t_memo(df, alpha), want)
    assert fieller._T_MEMO[alpha][0].tolist() == df.tolist()


Interval = namedtuple("Interval", "value low high h se")


def column_estimates(groups, fields, settings=CiSettings()):
    """interval_columns on the columns of (group, field) LogStats pairs, read
    back one MnlcsEstimate per pair: bounds and se None unless OK, h None
    where NaN."""
    columns = interval_columns(
        [g.n for g in groups], [g.mean for g in groups], [g.se for g in groups],
        [f.n for f in fields], [f.mean for f in fields], [f.se for f in fields], settings,
    )
    estimates = []
    for value, low, high, h, se, status, g, f in zip(*(c.tolist() for c in columns), groups, fields):
        ok = STATUSES[status] is EstimateStatus.OK
        estimates.append(MnlcsEstimate(
            value, low if ok else None, high if ok else None, None if math.isnan(h) else h,
            se if ok else None, g.n, f.n, STATUSES[status],
        ))
    return estimates


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
    monkeypatch.setattr(fieller, "t_memo", lambda df, alpha: np.full(np.shape(df), 2.0))
    for est in (estimate(group, field), *column_estimates([group, group], [field, field])):
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
        column_estimates([group, group], [LogStats(n=5, mean=1.0, se=0.1), field])


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
    assert column_estimates(groups, fields, settings) == [
        estimate_oracle(group, field, settings) for group, field in pairs
    ]
    assert [estimate(group, field, settings) for group, field in pairs] == column_estimates(
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
    ests = column_estimates(groups, [field] * 4, CiSettings(form="printed"))
    assert [e.status for e in ests] == [
        EstimateStatus.OK,
        EstimateStatus.INSUFFICIENT_DATA,
        EstimateStatus.UNBOUNDED_FIELLER,
        EstimateStatus.UNBOUNDED_FIELLER,
    ]
    assert ests[2].h is None and ests[3].h >= 1.0
    assert ests == [estimate_oracle(g, field, CiSettings(form="printed")) for g in groups]


COVERAGE_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "interval_coverage_mc.py"


@pytest.mark.parametrize("overrides", [
    {},
    {"form": "printed"},
    # small groups and fields: unbounded, insufficient and degenerate replicates
    {"group_n": 6, "field_n": 10, "mu": 0.1, "sigma": 0.5, "form": "printed"},
])
def test_coverage_script_matches_a_per_replicate_estimate_loop(overrides):
    a = {"group_n": 50, "field_n": 1000, "mu": 1.0, "sigma": 1.0, "form": "standard",
         "replicates": 300, **overrides}
    inside = valid = unbounded = degenerate = 0
    for rep in range(a["replicates"]):
        counts = sample_citations(a["mu"], a["sigma"], a["field_n"], stream(404, "coverage-mc", rep))
        logs = np.log1p(counts.astype(float))
        field = log_stats_from_logs(logs)
        if field.mean <= 0.0:
            degenerate += 1
            continue
        est = estimate(log_stats_from_logs(logs[: a["group_n"]]), field, CiSettings(form=a["form"]))
        if est.status is not EstimateStatus.OK:
            unbounded += 1
            continue
        valid += 1
        inside += est.contains(1.0)
    if overrides.get("field_n") == 10:
        assert valid and unbounded and degenerate
    coverage = inside / valid
    expected = [
        f"form={a['form']} group_n={a['group_n']} field_n={a['field_n']} "
        f"mu={a['mu']} sigma={a['sigma']}",
        f"replicates={a['replicates']} valid={valid} "
        f"unbounded_or_small={unbounded} degenerate_field={degenerate}",
        f"coverage of true ratio 1: {coverage:.4f} "
        f"(mc se {math.sqrt(coverage * (1 - coverage) / valid):.4f}, two-sided level 0.950)",
    ]
    flags = [x for k, v in a.items() for x in (f"--{k.replace('_', '-')}", str(v))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(COVERAGE_SCRIPT.parents[1] / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, str(COVERAGE_SCRIPT), *flags], env=env,
                         capture_output=True, text=True, check=True, timeout=120).stdout
    assert out.splitlines() == expected
