from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from _oracles import cell_key, cells_oracle, grid_cells, record_in_group
from conftest import cohort, rec, records
from mnlcs import bootstrap
from mnlcs.counting import membership, select_group, set_membership, top_countries
from mnlcs.fieller import FIELLER_FORMS, CiSettings
from mnlcs.model import Cohort, Scheme
from mnlcs.stability import compute_cells


def test_international_article_only_counts_inclusively():
    c = cohort([(3, ("US", "JP"))])
    assert select_group(c, "US", Scheme.INCLUSIVE).member_indices == (0,)
    assert select_group(c, "US", Scheme.EXCLUSIVE).member_indices == ()


def test_single_country_article_counts_in_both_schemes():
    c = cohort([(3, ("US",))])
    assert select_group(c, "US", Scheme.INCLUSIVE).member_indices == (0,)
    assert select_group(c, "US", Scheme.EXCLUSIVE).member_indices == (0,)


def test_foreign_article_counts_in_neither_scheme():
    c = cohort([(3, ("JP",))])
    assert select_group(c, "US", Scheme.INCLUSIVE).size == 0
    assert select_group(c, "US", Scheme.EXCLUSIVE).size == 0


def test_empty_selection_is_valid(simple_cohort):
    selection = select_group(simple_cohort, "FR", Scheme.INCLUSIVE)
    assert selection.size == 0


def test_top_countries_ranked_with_lexicographic_ties():
    cohorts = [
        cohort([(1, ("US",)), (1, ("US",)), (1, ("JP",)), (1, ("DE",))], year=2000),
        cohort(
            [(1, ("US",)), (1, ("US", "JP")), (1, ("US",)), (1, ("JP",)), (1, ("DE", "JP"))],
            year=2001,
        ),
    ]
    # brute-force inclusive tally as the oracle
    tally = Counter()
    for c in cohorts:
        for r in c.records:
            tally.update(r.countries)
    assert tally == Counter({"US": 5, "JP": 4, "DE": 2})

    ranked = top_countries(cohorts, 2)
    assert ranked.countries == ("US", "JP")
    assert ranked.complete

    # exact ties break lexicographically
    tied = [cohort([(0, ("US",))] * 5 + [(0, ("JP",))] * 3 + [(0, ("DE",))] * 3)]
    assert top_countries(tied, 2).countries == ("US", "DE")


# cohorts over a few small country sets, so counts often tie
article_lists = st.lists(
    st.tuples(st.integers(0, 5), st.frozensets(st.sampled_from(["US", "JP", "DE", "FR"]), max_size=2)),
    min_size=1,
    max_size=6,
)


@given(st.lists(article_lists, min_size=1, max_size=4), st.lists(st.integers(0, 9), max_size=5),
       st.integers(1, 5))
def test_top_countries_matches_per_record_count(drawn, copies, k):
    cohorts = [cohort(articles, year=2000 + i) for i, articles in enumerate(drawn)]
    # cohorts sharing an earlier cohort's sets tuple, and equal tuples rebuilt
    shared = [cohorts[i % len(cohorts)] for i in copies]
    cohorts += [c.with_citations("J2", 2000 + i, c.citations) for i, c in enumerate(shared)]
    cohorts += [cohort(drawn[i % len(drawn)], journal="J3") for i in copies]
    tally = Counter()
    for c in cohorts:
        for r in c.records:
            for country in ("DE", "FR", "JP", "US"):
                tally[country] += record_in_group(r, country, Scheme.INCLUSIVE)
    want = sorted((country for country in tally if tally[country]), key=lambda c: (-tally[c], c))
    ranked = top_countries(iter(cohorts), k)
    assert ranked.countries == tuple(want[:k])
    assert ranked.complete == (len(want) >= k)


def test_top_countries_single_country():
    ranked = top_countries([cohort([(1, ("US",)), (2, ("US",))])], 1)
    assert ranked.countries == ("US",)
    assert ranked.complete


def test_top_countries_flags_shortfall():
    ranked = top_countries([cohort([(1, ()), (2, ())])], 3)
    assert ranked.countries == ()
    assert not ranked.complete


def test_top_countries_rejects_bad_k():
    with pytest.raises(ValueError):
        top_countries([], 0)


cohorts_strategy = st.lists(records, min_size=1, max_size=30).map(
    lambda recs: Cohort(
        "J1",
        2000,
        tuple(
            rec("J1", 2000, r.citations, r.countries) for r in recs
        ),
    )
)


@given(cohorts_strategy, st.sampled_from(["US", "JP", "AA"]))
def test_exclusive_subset_of_inclusive(c, country):
    exclusive = set(select_group(c, country, Scheme.EXCLUSIVE).member_indices)
    inclusive = set(select_group(c, country, Scheme.INCLUSIVE).member_indices)
    assert exclusive <= inclusive


@given(cohorts_strategy)
def test_exclusive_counts_partition_but_inclusive_may_overlap(c):
    countries = sorted({code for r in c.records for code in r.countries})
    exclusive_total = sum(
        select_group(c, country, Scheme.EXCLUSIVE).size for country in countries
    )
    assert exclusive_total <= c.size


def test_inclusive_counts_can_exceed_cohort_size():
    c = cohort([(1, ("US", "JP")), (2, ("US", "DE"))])
    total = sum(
        select_group(c, country, Scheme.INCLUSIVE).size for country in ("US", "JP", "DE")
    )
    assert total == 4 > c.size


# A small country alphabet so sets overlap; zero-heavy counts so some
# cohorts have a degenerate field; ZZ never occurs in any cohort.
ORACLE_COUNTRIES = ["US", "JP", "DE", "ZZ"]
small_cohort_rows = st.lists(
    st.tuples(
        st.one_of(st.just(0), st.integers(0, 60)),
        st.frozensets(st.sampled_from(ORACLE_COUNTRIES[:3]), max_size=3),
    ),
    min_size=1,
    max_size=40,
)
small_cohorts = st.lists(small_cohort_rows, min_size=1, max_size=3).map(
    lambda cohorts: [cohort(rows, year=2000 + i) for i, rows in enumerate(cohorts)]
)


@given(small_cohorts)
def test_membership_rows_match_per_record_oracle(cohorts):
    targets = [(country, scheme) for country in ORACLE_COUNTRIES for scheme in Scheme]
    for c in cohorts:
        matrix = membership(c, targets)
        assert matrix.shape == (len(targets), c.size) and matrix.dtype == bool
        for row, (country, scheme) in zip(matrix, targets):
            assert row.tolist() == [record_in_group(r, country, scheme) for r in c.records]
        inclusive, exclusive = matrix[0::2], matrix[1::2]
        assert not (exclusive & ~inclusive).any()


def test_set_membership_table_is_read_only_and_shared(simple_cohort):
    targets = (("US", Scheme.INCLUSIVE), ("US", Scheme.EXCLUSIVE), ("ZZ", Scheme.INCLUSIVE))
    table = set_membership(simple_cohort.sets, targets)
    assert table.shape == (3, len(simple_cohort.sets)) and table.dtype == bool
    assert [sorted(s) for s, member in zip(simple_cohort.sets, table[0]) if member] == [
        ["GB", "US"], ["JP", "US"], ["US"]
    ]
    assert not table[2].any()
    with pytest.raises(ValueError):
        table[0, 0] = True
    # a cohort with equal sets reads the same cached table
    same_sets = cohort([(c + 1, tuple(r.countries)) for c, r in enumerate(simple_cohort.records)])
    assert set_membership(same_sets.sets, targets) is table
    np.testing.assert_array_equal(membership(simple_cohort, targets), table[:, simple_cohort.codes])


@given(
    small_cohorts,
    st.sampled_from([[Scheme.INCLUSIVE, Scheme.EXCLUSIVE], [Scheme.EXCLUSIVE]]),
    st.sampled_from([2, 3, 5]),
    st.sampled_from(FIELLER_FORMS),
)
def test_compute_cells_matches_per_cell_oracle(cohorts, schemes, min_group_n, form):
    settings = CiSettings(form=form, min_group_n=min_group_n)
    want, want_exclusions = cells_oracle(cohorts, ORACLE_COUNTRIES, schemes, settings)
    # blocks of 12 articles: cohorts over 12 stand alone, smaller ones share
    for articles in (bootstrap.ARTICLES, 12):
        exclusions = []
        with mock.patch.object(bootstrap, "ARTICLES", articles):
            grid = compute_cells(cohorts, ORACLE_COUNTRIES, schemes, settings, exclusions)
        assert exclusions == want_exclusions
        assert sorted(grid_cells(grid), key=cell_key) == sorted(want, key=cell_key)


