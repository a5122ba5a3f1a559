import ast
import functools
import operator
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

from _oracles import bin_members, scalar_decisions, scalar_lag0_points, split_half
from conftest import cohort, rec
import mnlcs
from mnlcs import bootstrap, fieller, stability
from mnlcs.bootstrap import (
    Lag0Result,
    coverage_probability_sim,
    lag0_batch,
    lag0_coverage,
    replicate_decisions,
)
from mnlcs.counting import top_countries
from mnlcs.errors import DomainError, InsufficientData, NoValidReplicates
from mnlcs.fieller import FIELLER_FORMS, CiSettings
from mnlcs.model import Cohort, Scheme
from mnlcs.rngtools import stream
from mnlcs.stability import ExclusionRecord, lag0_curve_points
from mnlcs.synth import GroupSpec, ScenarioSpec, generate, sample_citations


def big_cohort(n_field=2000, n_group=400, mu=1.0, sigma=1.0, seed=42, journal="J1", year=2000):
    counts = sample_citations(mu, sigma, n_field, stream(seed, "big", journal, year))
    records = tuple(
        rec(journal, year, int(c), ("US",) if i < n_group else ())
        for i, c in enumerate(counts)
    )
    return Cohort(journal, year, records)


def test_split_even_sizes():
    c = big_cohort(n_field=10, n_group=4)
    a, b = split_half(c, rng_seed=1)
    assert (a.size, b.size) == (5, 5)


def test_split_odd_sizes():
    c = big_cohort(n_field=11, n_group=4)
    a, b = split_half(c, rng_seed=1)
    assert sorted((a.size, b.size)) == [5, 6]


def test_split_partitions_the_cohort():
    c = big_cohort(n_field=31, n_group=10)
    a, b = split_half(c, rng_seed=3)
    assert Counter(a.records) + Counter(b.records) == Counter(c.records)


def test_split_deterministic_given_seed():
    c = big_cohort(n_field=20, n_group=5)
    first = split_half(c, rng_seed=9)
    second = split_half(c, rng_seed=9)
    assert first == second
    assert split_half(c, rng_seed=10) != first


def test_split_invariant_under_record_order():
    c = big_cohort(n_field=40, n_group=10)
    rng = np.random.default_rng(0)
    shuffled = Cohort(
        c.journal_id, c.year, tuple(c.records[i] for i in rng.permutation(c.size))
    )
    a1, b1 = split_half(c, rng_seed=5)
    a2, b2 = split_half(shuffled, rng_seed=5)
    assert Counter(a1.records) == Counter(a2.records)
    assert Counter(b1.records) == Counter(b2.records)


def test_split_requires_two_records():
    with pytest.raises(InsufficientData):
        split_half(cohort([(1, ())]), rng_seed=0)


def test_lag0_fraction_bounds_and_bookkeeping():
    c = big_cohort(n_field=200, n_group=50, seed=7)
    res = lag0_coverage(c, "US", Scheme.INCLUSIVE, replicates=100, rng_seed=1)
    assert 0.0 <= res.fraction <= 1.0
    assert res.n_valid + res.n_excluded == 100
    assert res.n_inside <= res.n_valid


def test_lag0_invariant_under_record_order():
    c = big_cohort(n_field=120, n_group=30, seed=13)
    rng = np.random.default_rng(2)
    shuffled = Cohort(
        c.journal_id, c.year, tuple(c.records[i] for i in rng.permutation(c.size))
    )
    r1 = lag0_coverage(c, "US", Scheme.INCLUSIVE, replicates=60, rng_seed=4)
    r2 = lag0_coverage(shuffled, "US", Scheme.INCLUSIVE, replicates=60, rng_seed=4)
    assert r1 == r2


def test_lag0_batch_matches_individual_calls():
    c = big_cohort(n_field=150, n_group=40, seed=3)
    targets = [("US", Scheme.INCLUSIVE), ("US", Scheme.EXCLUSIVE)]
    (n_valid,), (n_inside,) = lag0_batch([c], targets, replicates=50, rng_seed=8)
    for (country, scheme), val, ins in zip(targets, n_valid.tolist(), n_inside.tolist()):
        single = lag0_coverage(c, country, scheme, replicates=50, rng_seed=8)
        assert Lag0Result(ins / val, ins, val, 50 - val) == single
    # a target's splits do not depend on the other targets in the batch
    c, targets = paper_cohort(n=200, seed=2)
    counts = np.stack(lag0_batch([c], targets, replicates=50, rng_seed=8))
    alone = [np.stack(lag0_batch([c], [target], replicates=50, rng_seed=8)) for target in targets]
    np.testing.assert_array_equal(np.concatenate(alone, axis=2), counts)
    assert counts[0].any()


def engine_decisions(c, targets, replicates, rng_seed, settings=CiSettings()):
    """replicate_decisions' batches for one cohort concatenated: [replicates, targets] arrays."""
    _, valid, inside = zip(*replicate_decisions([c], targets, replicates, rng_seed, settings))
    return np.concatenate(valid), np.concatenate(inside)


def test_lag0_engine_matches_scalar_interval_path():
    # dual route: rebuild each replicate's halves from its count row and run
    # the scalar estimate() chain; every per-replicate decision must agree.
    # ZZ's articles are all uncited, so its half means are exactly zero.
    base = big_cohort(n_field=81, n_group=24, seed=19)
    extra = [rec(base.journal_id, base.year, 0, ("ZZ",)) for _ in range(14)]
    extra += [rec(base.journal_id, base.year, 0, ("ZZ", "US")) for _ in range(4)]
    c = Cohort(base.journal_id, base.year, base.records + tuple(extra))
    targets = [("US", Scheme.INCLUSIVE), ("US", Scheme.EXCLUSIVE), ("ZZ", Scheme.INCLUSIVE)]
    for form in ("standard", "printed"):
        settings = CiSettings(form=form)
        valid, inside = engine_decisions(c, targets, 130, 23, settings)
        ref_valid, ref_inside = scalar_decisions(c, targets, 130, 23, settings)
        assert ref_valid[:, 0].any() and ref_inside[:, 0].any()
        np.testing.assert_array_equal(valid, ref_valid)
        np.testing.assert_array_equal(inside, ref_inside)
        n_valid, n_inside = lag0_batch([c], targets, 130, rng_seed=23, settings=settings)
        assert n_valid.dtype == n_inside.dtype == np.int64
        np.testing.assert_array_equal(n_valid, [valid.sum(axis=0)])
        np.testing.assert_array_equal(n_inside, [inside.sum(axis=0)])


# Up to one distinct author-country set per article; UC's articles are all
# uncited and ZZ never occurs, so both edge groups are among the targets.
DUAL_COUNTRIES = ["US", "JP", "DE", "GB", "FR", "UC"]
dual_route_row = st.tuples(
    st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 200)),
    st.frozensets(st.sampled_from(DUAL_COUNTRIES), max_size=4),
)
dual_route_rows = st.integers(2, 60).flatmap(
    lambda n: st.lists(dual_route_row, min_size=n, max_size=n)
).map(lambda rows: [(0 if "UC" in s else c, tuple(s)) for c, s in rows])


dual_route_args = (
    dual_route_rows,
    st.sampled_from(FIELLER_FORMS),
    st.integers(2, 5),
    st.sampled_from([1, 63, 64, 65, 131]),
    st.integers(0, 2**16),
)


# half A is three equal counts, so its interval is [1, 1], and half B is all
# US, so its ratio is exactly 1: half B's sums must not come from total - A
HALF_B_TIE = ([(175, ()), (0, ("US",)), (1, ("US",)), (175, ("US",)), (175, ("US",)),
               (2, ("JP", "US"))], "standard", 2, 63, 0)


@hyp_settings(max_examples=60, deadline=None)
@given(*dual_route_args)
@example(*HALF_B_TIE)
def test_engine_matches_scalar_route_on_random_cohorts(rows, form, min_group_n, replicates, seed):
    check_engine_against_scalar_route(rows, form, min_group_n, replicates, seed)


@hyp_settings(max_examples=30, deadline=None)
@given(*dual_route_args)
@example(*HALF_B_TIE)
def test_engine_matches_scalar_route_with_one_row_calls(rows, form, min_group_n, replicates, seed):
    # every replicate is its own draw call, so call boundaries fall between all rows
    with mock.patch.object(bootstrap, "ROWS", 1):
        check_engine_against_scalar_route(rows, form, min_group_n, replicates, seed)


def check_engine_against_scalar_route(rows, form, min_group_n, replicates, seed):
    c = cohort(rows)
    targets = [(country, scheme) for country in ("US", "DE", "UC", "ZZ") for scheme in Scheme]
    settings = CiSettings(form=form, min_group_n=min_group_n)
    valid, inside = engine_decisions(c, targets, replicates, seed, settings)
    ref_valid, ref_inside = scalar_decisions(c, targets, replicates, seed, settings)
    assert valid.shape == (replicates, len(targets))
    np.testing.assert_array_equal(valid, ref_valid)
    np.testing.assert_array_equal(inside, ref_inside)


def decisions_by_cohort(cohorts, targets, replicates, rng_seed, settings):
    """replicate_decisions' batches split by cohort: (valid, inside) per cohort,
    None for a cohort without rows."""
    parts = [[] for _ in cohorts]
    for owner, valid, inside in replicate_decisions(cohorts, targets, replicates, rng_seed, settings):
        assert (np.diff(owner) >= 0).all()  # cohorts in input order, each in one run
        for i in np.unique(owner):
            parts[i].append((valid[owner == i], inside[owner == i]))
    return [tuple(map(np.concatenate, zip(*p))) if p else None for p in parts]


@hyp_settings(max_examples=40, deadline=None)
@given(
    st.lists(dual_route_rows, min_size=1, max_size=4),
    st.none() | st.integers(0, 4),
    st.sampled_from(FIELLER_FORMS),
    st.integers(2, 5),
    st.integers(1, 14),
    st.integers(0, 2**16),
)
# two-row calls: two cohorts share a batch, the one-article cohort between them
@example([[(3, ("US",)), (5, ("US",)), (0, ())]] * 3, 1, "standard", 2, 2, 0)
# calls of 3, 3 and 1 rows: a batch ends inside the first cohort
@example([[(3, ("US",)), (5, ("US",)), (0, ())]] * 3, None, "printed", 2, 7, 0)
def test_engine_matches_scalar_route_across_cohorts(cohort_rows, one_article_at, form, min_group_n,
                                                    replicates, seed):
    # draw calls of at most 3 rows, batches of 5 and blocks of 40 articles,
    # so flushes and block edges fall inside cohorts and between them
    cohorts = [cohort(rows, journal=f"J{i}", year=2000 + i % 2) for i, rows in enumerate(cohort_rows)]
    if one_article_at is not None:
        cohorts.insert(min(one_article_at, len(cohorts)), cohort([(4, ("US",))], journal="JX"))
    targets = [(country, scheme) for country in ("US", "DE", "UC", "ZZ") for scheme in Scheme]
    settings = CiSettings(form=form, min_group_n=min_group_n)
    with mock.patch.multiple(bootstrap, ROWS=3, BATCH=5, ARTICLES=40):
        rows = decisions_by_cohort(cohorts, targets, replicates, seed, settings)
        counts = np.stack(lag0_batch(cohorts, targets, replicates, seed, settings))
        assert counts.shape == (2, len(cohorts), len(targets))
        for i, (c, got) in enumerate(zip(cohorts, rows)):
            if c.size < 2:
                assert got is None
            else:
                for actual, expected in zip(got, scalar_decisions(c, targets, replicates, seed, settings)):
                    np.testing.assert_array_equal(actual, expected)
            alone = np.stack(lag0_batch([c], targets, replicates, seed, settings))
            np.testing.assert_array_equal(counts[:, i:i + 1], alone)


def test_engine_treats_h_at_one_as_unbounded(monkeypatch):
    # a replicate whose interval has h exactly 1 is invalid, one ulp under is not
    c = big_cohort(n_field=81, n_group=24, seed=19)
    targets = [("US", Scheme.INCLUSIVE)]
    kernel = bootstrap.fieller_interval
    for h_pinned, any_valid in ((1.0, False), (np.nextafter(1.0, 0.0), True)):
        def pinned(*args):
            value, low, high, h, se = kernel(*args)
            return value, low, high, np.full_like(h, h_pinned), se

        monkeypatch.setattr(bootstrap, "fieller_interval", pinned)
        valid, _ = engine_decisions(c, targets, 40, 3)
        assert valid.any() == any_valid


def tight_cohort(base, n=400, seed=0, step=1):
    # large counts with a spread of 0..2 steps: ln(1+c) differs only in
    # the 9th significant digit at base 10^9, where uncentred sums of squares
    # cancel to nothing
    rng = np.random.default_rng(seed)
    offsets = rng.integers(0, 3, size=n)
    kinds = [(), ("US",), ("US", "GB"), ("GB",)]
    return cohort([(base + step * int(o), kinds[i % 4]) for i, o in enumerate(offsets)])


@pytest.mark.parametrize("base", [10**4, 10**6, 10**9, 2**62])
def test_lag0_engine_matches_scalar_path_on_large_close_counts(base):
    # near int64's top, 2^62 steps by 2^32: the relative spread of 10^9 by 1
    c = tight_cohort(base, step=max(1, base >> 30))
    targets = [("US", Scheme.INCLUSIVE), ("US", Scheme.EXCLUSIVE), ("GB", Scheme.INCLUSIVE)]
    valid, inside = engine_decisions(c, targets, 100, 5)
    ref_valid, ref_inside = scalar_decisions(c, targets, 100, 5, CiSettings())
    assert ref_valid.all()
    np.testing.assert_array_equal(valid, ref_valid)
    np.testing.assert_array_equal(inside, ref_inside)


def check_edge_cohort(c, replicates=40, seed=3, settings=CiSettings(min_group_n=2)):
    targets = [("US", Scheme.INCLUSIVE), ("US", Scheme.EXCLUSIVE), ("GB", Scheme.INCLUSIVE)]
    valid, inside = engine_decisions(c, targets, replicates, seed, settings)
    ref_valid, ref_inside = scalar_decisions(c, targets, replicates, seed, settings)
    np.testing.assert_array_equal(valid, ref_valid)
    np.testing.assert_array_equal(inside, ref_inside)
    return valid


def test_lag0_engine_matches_scalar_path_with_zero_and_huge_counts():
    # citations 0 and 2^62 (+0..2) in one cohort: a bin key built from the
    # counts themselves would overflow int64, one built from their ranks not
    rng = np.random.default_rng(1)
    kinds = [(), ("US",), ("US", "GB"), ("GB",)]
    rows = [(0 if i % 3 == 0 else 2**62 + int(o), kinds[i % 4])
            for i, o in enumerate(rng.integers(0, 3, size=200))]
    assert check_edge_cohort(cohort(rows)).any()


@pytest.mark.parametrize("rows", [
    [(3, ("US",)), (5, ("US", "GB"))],
    [(3, ("US",)), (0, ()), (7, ("GB",))],
])
def test_lag0_engine_on_cohorts_of_two_and_three(rows):
    # half A holds one article, so no group reaches min_group_n 2
    assert not check_edge_cohort(cohort(rows)).any()


def test_lag0_engine_on_an_all_uncited_cohort():
    # the field mean is 0 in both halves, so every replicate is excluded
    rows = [(0, kind) for kind in [(), ("US",), ("US", "GB"), ("GB",)] * 10]
    assert not check_edge_cohort(cohort(rows)).any()


def wide_cohort(n=3000, seed=11):
    """Citations spread over 0..999, so the bins outnumber CELLS // ROWS."""
    rng = np.random.default_rng(seed)
    return cohort([(int(cnt), ("US",) if i % 4 == 0 else ()) for i, cnt in enumerate(
        rng.integers(0, 1000, size=n))])


@pytest.mark.parametrize(
    "make", [lambda: big_cohort(n_field=90, n_group=30, seed=11), wide_cohort],
    ids=["default_rows", "fewer_rows"],
)
def test_first_replicates_do_not_depend_on_replicate_count(make):
    # draw calls hold a fixed row count R, so any total's rows are a prefix
    # of a longer total's
    c = make()
    targets = [("US", Scheme.INCLUSIVE), ("US", Scheme.EXCLUSIVE)]
    rows = bootstrap._rows_per_call(len(bin_members(c)))
    assert (rows == bootstrap.ROWS) == (c.size < 1000)
    totals = [rows - 1, rows, rows + 1, 2 * rows + 3]
    long_valid, long_inside = engine_decisions(c, targets, totals[-1], 6)
    assert long_valid.any()
    for total in totals[:-1]:
        valid, inside = engine_decisions(c, targets, total, 6)
        np.testing.assert_array_equal(valid, long_valid[:total])
        np.testing.assert_array_equal(inside, long_inside[:total])


def test_lag0_same_with_single_threaded_blas():
    script = (
        "from test_bootstrap import big_cohort; "
        "from mnlcs.bootstrap import lag0_batch; from mnlcs.model import Scheme; "
        "c = big_cohort(n_field=300, n_group=60, seed=2); "
        "print([a.tolist() for a in lag0_batch([c], [('US', Scheme.INCLUSIVE), ('US', Scheme.EXCLUSIVE)], 100, 9)])"
    )
    src = str(Path(mnlcs.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    outputs = []
    for threads in (None, "1"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join([src, tests])
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        run = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    [valid], [inside] = ast.literal_eval(outputs[0])
    assert len(valid) == len(inside) == 2 and all(valid)


def test_lag0_memory_is_bounded_in_replicates():
    # 10^4 articles, 10 countries x 2 schemes, 1000 replicates: memory must
    # stay O(block x n), not O(replicates x n). The second cohort adds three
    # non-target countries to every article, so almost every article has its
    # own author-country set (about 10^4 sets) but the membership patterns
    # over the targets stay few.
    rng = np.random.default_rng(3)
    codes = [chr(65 + i) * 2 for i in range(10)]
    others = [a + b for a in "KLMNOPQRSTUVWXY" for b in "ABCDEFGHIJKLMNOPQRSTUVWXYZ"]
    counts = rng.integers(0, 40, size=10_000)
    few = [
        (int(cnt), tuple(rng.choice(codes, size=int(rng.integers(0, 3)), replace=False)))
        for cnt in counts
    ]
    many = [(cnt, ctrs + tuple(rng.choice(others, size=3, replace=False))) for cnt, ctrs in few]
    targets = [(code, s) for code in codes for s in (Scheme.INCLUSIVE, Scheme.EXCLUSIVE)]
    for pairs, min_sets in ((few, 1), (many, 9_000)):
        c = cohort(pairs)
        assert len(c.sets) >= min_sets
        c.log_citations  # cached on the cohort: not part of the engine's working set
        tracemalloc.start()
        try:
            n_valid, n_inside = lag0_batch([c], targets, replicates=1000, rng_seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n_valid.shape == (1, 20)
        assert ((0 <= n_inside) & (n_inside <= n_valid) & (n_valid <= 1000)).all()
        assert peak < 64 * 2**20


def paper_cohort(n=300, seed=4):
    """A paper-sized cohort: 10 countries, each article with up to two of them."""
    rng = np.random.default_rng(seed)
    codes = [chr(65 + i) * 2 for i in range(10)]
    return cohort([
        (int(cnt), tuple(rng.choice(codes, size=int(rng.integers(0, 3)), replace=False)))
        for cnt in rng.integers(0, 30, size=n)
    ]), [(code, s) for code in codes for s in Scheme]


def test_lag0_memory_does_not_grow_with_replicates():
    c, targets = paper_cohort()
    lag0_batch([c], targets, replicates=1, rng_seed=1)  # fills the t memo
    peaks = []
    for replicates in (1000, 10_000):
        tracemalloc.start()
        try:
            n_valid, n_inside = lag0_batch([c], targets, replicates=replicates, rng_seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert ((0 <= n_inside) & (n_inside <= n_valid) & (n_valid <= replicates)).all()
    assert peaks[1] <= 2 * peaks[0]


def test_lag0_memory_does_not_grow_with_cohorts():
    # cohorts are binned a block of at most ARTICLES articles at a time, so
    # the peak stays flat in the cohort count but for the [cohorts, targets]
    # counts and fractions
    spec = ScenarioSpec(
        n_journals=36, year_start=1996, year_end=2014, field_size_per_year=300,
        groups=tuple(GroupSpec(code * 2, round(0.10 - 0.01 * i, 2), 0.6 + 0.1 * i, 1.0)
                     for i, code in enumerate("ABCDEFGHIJ")),
        collab_fraction=0.3, rng_seed=5,
    )
    cohorts = generate(spec)
    targets = [(country, s) for country in top_countries(cohorts, 10).countries for s in Scheme]
    for c in cohorts:
        c.log_citations  # cached on the cohort: not part of the engine's working set
    lag0_curve_points(cohorts[:1], targets, 1, 5)  # fills the t memo
    peaks = []
    for n in (114, 684):
        tracemalloc.start()
        try:
            points = lag0_curve_points(cohorts[:n], targets, 20, 5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert any(points.values())
    assert peaks[1] <= 10 * 2**20
    assert peaks[1] - peaks[0] <= 2**20


# the first article of a dual-route cohort alone is a one-article cohort
lag0_route_rows = st.one_of(dual_route_rows, dual_route_rows.map(lambda rows: rows[:1]))


@hyp_settings(max_examples=10, deadline=None)
@given(
    st.lists(lag0_route_rows, min_size=1, max_size=4),
    st.sampled_from([1, 65]),
    st.integers(0, 2**16),
)
@example([[(3, ("US",))], [(c, ("US",) if c % 2 else ()) for c in range(12)]], 65, 7)
def test_lag0_curve_points_match_the_scalar_route(cohort_rows, replicates, seed):
    cohorts = [cohort(rows, year=2000 + i) for i, rows in enumerate(cohort_rows)]
    targets = [(country, scheme) for country in ("US", "UC", "ZZ") for scheme in Scheme]
    settings = CiSettings(min_group_n=2)
    exclusions = []
    points = lag0_curve_points(cohorts, targets, replicates, seed, settings, exclusions)
    assert (points, exclusions) == scalar_lag0_points(cohorts, targets, replicates, seed, settings)


def test_lag0_curve_points_compute_each_t_once(monkeypatch):
    # 150 cohorts of distinct sizes need overlapping df ranges; each df's t
    # is computed once, whichever cohorts ask for it
    computed = []
    compute = fieller._t_values

    def recording(df, alpha):
        computed.extend(df.tolist())
        return compute(df, alpha)

    monkeypatch.setattr(fieller, "_t_values", recording)
    monkeypatch.setattr(fieller, "_T_MEMO", {})
    rng = np.random.default_rng(8)
    cohorts = [
        cohort([(int(c), ("US",) if i % 3 else ()) for i, c in enumerate(rng.integers(0, 20, size=n))],
               journal=f"J{n}")
        for n in range(2, 302, 2)
    ]
    settings = CiSettings(alpha=0.0137)  # an alpha no other test asks t for
    assert any(lag0_curve_points(cohorts, [("US", Scheme.INCLUSIVE)], 2, 3, settings).values())
    assert computed and len(computed) == len(set(computed))


def test_lag0_fraction_is_a_left_fold_of_the_cohort_fractions():
    # one target: a sum over its column would add pairwise, and on this data
    # a pairwise sum and a left fold differ in the last bit
    cohorts = [big_cohort(n_field=60, n_group=20, seed=s, journal=f"J{s}") for s in range(40)]
    targets = [("US", Scheme.INCLUSIVE)]
    (point,) = lag0_curve_points(cohorts, targets, 13, 2).values()
    n_valid, n_inside = (a[:, 0].tolist() for a in lag0_batch(cohorts, targets, 13, 2))
    fractions = [ins / val for ins, val in zip(n_inside, n_valid) if val]
    folded = functools.reduce(operator.add, fractions) / len(fractions)
    assert np.sum(fractions) / len(fractions) != folded
    assert point.inside_fraction == folded
    assert point.n_comparisons == sum(n_valid)


def test_per_target_records_are_named_tuples_with_the_same_fields():
    assert Lag0Result._fields == ("fraction", "n_inside", "n_valid", "n_excluded")
    assert ExclusionRecord._fields == (
        "stage", "reason", "count", "journal_id", "year", "country", "scheme", "offset"
    )
    record = ExclusionRecord("lag0", "replicates_excluded", 3)
    assert record == ("lag0", "replicates_excluded", 3, "", None, "", None, None)
    result = lag0_coverage(big_cohort(n_field=40, n_group=10), "US", Scheme.INCLUSIVE, 20, 1)
    assert result == Lag0Result(result.n_inside / result.n_valid, result.n_inside, result.n_valid,
                                20 - result.n_valid)


def test_lag0_batch_excludes_every_replicate_of_a_one_article_cohort():
    targets = [("US", Scheme.INCLUSIVE), ("US", Scheme.EXCLUSIVE), ("ZZ", Scheme.INCLUSIVE)]
    one = cohort([(4, ("US",))])
    n_valid, n_inside = lag0_batch([one], targets, replicates=7, rng_seed=1)
    assert n_valid.tolist() == n_inside.tolist() == [[0, 0, 0]]
    with pytest.raises(NoValidReplicates):
        lag0_coverage(one, "US", Scheme.INCLUSIVE, replicates=7, rng_seed=1)
    # no replicates is an error for a one-article cohort as for any other
    for c in (cohort([(4, ("US",))]), big_cohort(n_field=40, n_group=10)):
        with pytest.raises(DomainError):
            lag0_batch([c], targets, replicates=0, rng_seed=1)


def test_one_article_cohorts_inside_blocks_change_no_other_cohort():
    # one-article cohorts first, last, side by side and between larger ones,
    # with counts and sets new to their block, so they shift its citation
    # ranks and set codes
    larger = [big_cohort(n_field=n, n_group=n // 2, seed=s, journal=f"J{s}") for s, n in ((1, 20), (2, 30), (3, 25))]
    ones = [cohort([row], journal=f"S{i}") for i, row in enumerate(
        [(0, ()), (1000, ("US",)), (2**40, ("DE", "US")), (5, ("US",))])]
    cohorts = [ones[0], larger[0], ones[1], ones[2], larger[1], larger[2], ones[3]]
    targets = [("US", Scheme.INCLUSIVE), ("US", Scheme.EXCLUSIVE), ("DE", Scheme.INCLUSIVE)]
    settings = CiSettings(min_group_n=2)
    with mock.patch.object(bootstrap, "ARTICLES", 64):
        sizes = [[c.size for _, c in block] for block in bootstrap.blocks(cohorts)]
        assert sizes == [[1, 20, 1, 1, 30], [25, 1]]
        counts = np.stack(lag0_batch(cohorts, targets, 40, 6, settings))
        for i, c in enumerate(cohorts):
            np.testing.assert_array_equal(counts[:, i:i + 1], np.stack(lag0_batch([c], targets, 40, 6, settings)))
    assert counts[0, [1, 4, 5], :2].all() and not counts[:, [0, 2, 3, 6]].any()


def test_lag0_curve_points_at_zero_replicates_split_nothing(monkeypatch):
    def no_split(*args):
        raise AssertionError("lag0_batch called at 0 replicates")

    monkeypatch.setattr(stability, "lag0_batch", no_split)
    targets = [("US", Scheme.INCLUSIVE), ("US", Scheme.EXCLUSIVE)]
    cohorts = [big_cohort(n_field=40, n_group=10), cohort([(4, ("US",))], year=2001)]
    exclusions = []
    assert lag0_curve_points(cohorts, targets, 0, 1, CiSettings(), exclusions) == {
        target: None for target in targets
    }
    assert exclusions == []


def test_lag0_large_synthetic_band():
    # halved samples compared against each other land below nominal 95%;
    # the full-size 10k-replicate version is an acceptance criterion
    c = big_cohort(n_field=2000, n_group=400, seed=42)
    res = lag0_coverage(c, "US", Scheme.INCLUSIVE, replicates=400, rng_seed=17)
    assert res.n_excluded == 0
    assert 0.84 <= res.fraction <= 0.96


def test_lag0_minimum_size_group_flagged():
    # a group at exactly the interval threshold cannot survive halving
    c = big_cohort(n_field=60, n_group=5, seed=5)
    with pytest.raises(NoValidReplicates):
        lag0_coverage(c, "US", Scheme.INCLUSIVE, replicates=40, rng_seed=2,
                      settings=CiSettings(min_group_n=5))
    n_valid, n_inside = lag0_batch([c], [("US", Scheme.INCLUSIVE)], replicates=40, rng_seed=2,
                                   settings=CiSettings(min_group_n=5))
    assert n_valid.tolist() == n_inside.tolist() == [[0]]


def test_coverage_sim_extreme_large_first_sample():
    assert coverage_probability_sim(10_000, 1, replicates=1500, rng_seed=1) < 0.10


def test_coverage_sim_extreme_large_second_sample():
    frac = coverage_probability_sim(10, 10_000, replicates=1500, rng_seed=2)
    assert 0.90 <= frac <= 0.96


def test_coverage_sim_middle_case_sits_between_extremes():
    frac = coverage_probability_sim(100, 100, replicates=1500, rng_seed=3)
    assert 0.2 < frac < 0.93


def test_coverage_sim_monotone_toward_zero():
    # growing the first sample with a single-draw second sample shrinks the
    # interval and drives coverage down
    fracs = [
        coverage_probability_sim(n, 1, replicates=1500, rng_seed=4)
        for n in (50, 500, 5000)
    ]
    assert fracs[1] <= fracs[0] + 0.02
    assert fracs[2] <= fracs[1] + 0.02


def test_coverage_sim_spec_validation():
    with pytest.raises(ValueError):
        coverage_probability_sim(1, 1)
    with pytest.raises(ValueError):
        coverage_probability_sim(10, 0)
    with pytest.raises(ValueError):
        coverage_probability_sim(10, 1, sigma0=0.0)
    with pytest.raises(ValueError):
        coverage_probability_sim(10, 1, replicates=50)
    run = coverage_probability_sim(40, 40, mu0=2.0, sigma0=3.0, replicates=200, rng_seed=5)
    assert 0.0 <= run <= 1.0
