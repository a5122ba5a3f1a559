from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from _oracles import canonical_sets_oracle, record_in_group, record_to_row
from conftest import cohort, rec, records
from mnlcs.counting import select_group
from mnlcs.dataio import CSV_HEADER
from mnlcs.errors import (
    MalformedCountry,
    NegativeCitations,
    UnparseableYear,
    ValidationError,
)
from mnlcs import model
from mnlcs.model import (
    CitationRecord,
    Cohort,
    GroupSelection,
    LogStats,
    EstimateStatus,
    MnlcsEstimate,
    Scheme,
    validate_record,
)
from mnlcs.synth import GroupSpec, ScenarioSpec, generate


def test_validate_record_dedups_countries():
    record = validate_record(
        {"journal_id": "J1", "year": "2000", "citations": "5", "countries": "US;US;JP"}
    )
    assert record.countries == frozenset({"US", "JP"})
    assert record.citations == 5
    assert record.year == 2000


def test_validate_record_rejects_negative_citations():
    with pytest.raises(NegativeCitations):
        validate_record(
            {"journal_id": "J1", "year": "2000", "citations": "-1", "countries": "US"}
        )


def test_validate_record_rejects_counts_beyond_int64():
    assert model.parse_citations(str(2**63 - 1)) == 2**63 - 1
    assert model.parse_citations(str(-2**63)) == -2**63
    for citations in (2**63, -2**63 - 1, -10**20):
        row = {"journal_id": "J1", "year": "2000", "citations": str(citations), "countries": "US"}
        with pytest.raises(ValidationError, match="citations beyond int64"):
            validate_record(row)


def test_validate_record_keeps_empty_country_set():
    record = validate_record(
        {"journal_id": "J1", "year": "2000", "citations": "0", "countries": ""}
    )
    assert record.countries == frozenset()


def test_validate_record_maps_country_names():
    record = validate_record(
        {
            "journal_id": "J1",
            "year": "2001",
            "citations": "2",
            "countries": "United States; japan ;gb",
        }
    )
    assert record.countries == frozenset({"US", "JP", "GB"})


@pytest.mark.parametrize("year", ["199x", "", "20.5", "123456"])
def test_validate_record_rejects_bad_years(year):
    with pytest.raises(UnparseableYear):
        validate_record(
            {"journal_id": "J1", "year": year, "citations": "0", "countries": ""}
        )


def test_validate_record_rejects_unknown_country():
    with pytest.raises(MalformedCountry):
        validate_record(
            {"journal_id": "J1", "year": "2000", "citations": "0", "countries": "Atlantis"}
        )


def test_validate_record_requires_all_fields():
    with pytest.raises(ValidationError):
        validate_record({"journal_id": "J1", "year": "2000", "citations": "0"})


@given(records)
def test_record_round_trips_through_csv_row(record):
    row = record_to_row(record)
    parsed = validate_record(dict(zip(CSV_HEADER, row)))
    assert parsed == record


def test_cohort_rejects_foreign_records():
    with pytest.raises(ValidationError):
        Cohort("J1", 2000, (rec("J2", 2000, 1),))
    with pytest.raises(ValidationError):
        Cohort("J1", 2000, (rec("J1", 2001, 1),))


def test_cohort_must_be_nonempty():
    with pytest.raises(ValidationError):
        Cohort("J1", 2000, ())


def test_cohort_log_citations(simple_cohort):
    logs = simple_cohort.log_citations
    assert logs[0] == 0.0
    assert len(logs) == simple_cohort.size


def test_group_selection_rederivable(simple_cohort):
    # stored indices must coincide with a brute-force membership pass
    for scheme in Scheme:
        for country in ("US", "JP", "DE", "GB", "FR"):
            selection = select_group(simple_cohort, country, scheme)
            expected = tuple(
                i
                for i, r in enumerate(simple_cohort.records)
                if record_in_group(r, country, scheme)
            )
            assert selection.member_indices == expected


def test_group_selection_requires_sorted_unique_indices():
    with pytest.raises(ValidationError):
        GroupSelection("US", Scheme.INCLUSIVE, (2, 1))
    with pytest.raises(ValidationError):
        GroupSelection("US", Scheme.INCLUSIVE, (1, 1))


def test_log_stats_forbids_se_for_single_observation():
    with pytest.raises(ValidationError):
        LogStats(n=1, mean=0.5, se=0.0)
    assert LogStats(n=1, mean=0.5, se=None).se is None


def test_log_stats_requires_se_for_larger_samples():
    with pytest.raises(ValidationError):
        LogStats(n=3, mean=0.5, se=None)
    with pytest.raises(ValidationError):
        LogStats(n=3, mean=0.5, se=-0.1)


def test_estimate_clamps_reported_lower_bound_only():
    est = MnlcsEstimate(
        value=0.4,
        ci_low=-0.2,
        ci_high=1.1,
        h=0.05,
        se_mnlcs=0.3,
        n_group=10,
        n_field=100,
        status=EstimateStatus.OK,
    )
    assert est.ci_low == -0.2
    assert est.ci_low_reported == 0.0
    # membership keeps using the raw bound and is closed at the endpoints
    assert est.contains(-0.2)
    assert est.contains(1.1)
    assert not est.contains(1.1000001)


def test_estimate_without_interval_refuses_membership():
    est = MnlcsEstimate(
        value=0.4,
        ci_low=None,
        ci_high=None,
        h=None,
        se_mnlcs=None,
        n_group=2,
        n_field=100,
        status=EstimateStatus.INSUFFICIENT_DATA,
    )
    with pytest.raises(ValidationError):
        est.contains(0.4)


def test_record_rejects_lowercase_country_code():
    with pytest.raises(MalformedCountry):
        CitationRecord("J1", 2000, 0, frozenset({"us"}))


@pytest.mark.parametrize("journal_id, country", [("J1\n", "US"), ("J1", "US\n"), ("J1\n", "US\n")])
def test_identifiers_reject_a_trailing_newline(journal_id, country):
    # the whole identifier must match, not a prefix before a final newline
    with pytest.raises(ValidationError):
        Cohort(journal_id, 2000, [1], [0], (frozenset({country}),))
    with pytest.raises(ValidationError):
        CitationRecord(journal_id, 2000, 1, frozenset({country}))


def test_cohort_arrays_are_read_only(simple_cohort):
    for column in (simple_cohort.citations, simple_cohort.codes, simple_cohort.log_citations):
        with pytest.raises(ValueError):
            column[0] = 1
    assert simple_cohort.log_citations[0] == 0.0


def test_cohort_columns_do_not_depend_on_set_order():
    # the same articles described with the sets listed in different orders,
    # with an unused set and a duplicate set, give identical columns
    citations = [4, 0, 7, 4, 2]
    sets_a = (frozenset({"US"}), frozenset(), frozenset({"JP", "US"}), frozenset({"DE"}))
    codes_a = [2, 0, 1, 2, 0]
    sets_b = (frozenset(), frozenset({"FR"}), frozenset({"US"}), frozenset({"US", "JP"}), frozenset())
    codes_b = [3, 2, 0, 3, 2]
    a = Cohort("J1", 2000, citations, codes_a, sets_a)
    b = Cohort("J1", 2000, citations, codes_b, sets_b)
    for other in (b, Cohort("J1", 2000, b.records)):
        assert other == a
        assert other.sets == a.sets == (frozenset(), frozenset({"JP", "US"}), frozenset({"US"}))
        np.testing.assert_array_equal(other.citations, a.citations)
        np.testing.assert_array_equal(other.codes, a.codes)
        assert other.codes.dtype == np.intp and other.citations.dtype == np.int64
    assert Cohort("J1", 2000, citations[::-1], codes_a[::-1], sets_a) != a


def test_cohort_validates_columns():
    with pytest.raises(NegativeCitations):
        Cohort("J1", 2000, [1, -1], [0, 0], (frozenset(),))
    with pytest.raises(ValidationError):
        Cohort("J1", 2000, [1, 2], [0, 1], (frozenset(),))
    with pytest.raises(ValidationError):
        Cohort("J,1", 2000, [1], [0], (frozenset(),))
    with pytest.raises(MalformedCountry):
        Cohort("J1", 2000, [1], [0], (frozenset({"us"}),))
    # an unused set is dropped before its codes are checked
    assert Cohort("J1", 2000, [1], [0], (frozenset(), frozenset({"us"}))).sets == (frozenset(),)


def test_generated_cohorts_share_one_read_only_label_column():
    spec = ScenarioSpec(
        n_journals=2, year_start=2000, year_end=2002, field_size_per_year=30,
        groups=(GroupSpec("AA", 0.3, 1.0, 1.0), GroupSpec("BB", 0.2, 1.0, 1.0)),
        collab_fraction=0.5, rng_seed=4,
    )
    cohorts = generate(spec)
    first = cohorts[0]
    assert first.sets == tuple(map(frozenset, ((), ("AA",), ("AA", "ZZ"), ("BB",), ("BB", "ZZ"))))
    for c in cohorts:
        assert c.codes is first.codes and c.sets is first.sets
        assert c == Cohort(c.journal_id, c.year, c.citations.tolist(), c.codes.tolist(), list(c.sets))
        for column in (c.citations, c.codes):
            with pytest.raises(ValueError):
                column[0] = 1
    # the labels are checked as the constructor checks them
    with pytest.raises(MalformedCountry):
        generate(replace(spec, collab_partner="zz"))


# sets tuples drawn from a few small sets, so equal sets repeat in any order
# and some sets go unused
set_tuples = st.lists(
    st.frozensets(st.sampled_from(["US", "JP", "DE"]), max_size=2), min_size=1, max_size=6
).map(tuple)


@given(set_tuples, st.data())
def test_canonical_sets_match_per_cohort_oracle(sets, data):
    codes = np.array(data.draw(st.lists(st.integers(0, len(sets) - 1), min_size=1, max_size=8)))
    want_codes, want_sets = canonical_sets_oracle(codes, sets)
    got_codes, got_sets = model._canonical_codes(sets)(codes)
    np.testing.assert_array_equal(got_codes, want_codes)
    assert got_sets == want_sets


def test_cohorts_sharing_sets_check_only_the_sets_they_use():
    sets = (frozenset(), frozenset({"US"}), frozenset({"usa"}), frozenset({"US"}))
    for _ in range(2):
        assert Cohort("J1", 2000, [1, 2], [0, 3], sets).sets == (frozenset(), frozenset({"US"}))
        with pytest.raises(MalformedCountry):
            Cohort("J1", 2001, [1, 2], [0, 2], sets)
    # equal sets listed in other orders merge to the same columns
    a = Cohort("J1", 2000, [4, 5, 6], [1, 3, 0], sets)
    b = Cohort("J1", 2000, [4, 5, 6], [0, 0, 1], [{"US"}, frozenset()])
    assert a == b and b.codes.tolist() == [1, 1, 0]


def test_generated_cohorts_equal_cohorts_from_their_records():
    spec = ScenarioSpec(
        n_journals=2, year_start=2000, year_end=2001, field_size_per_year=30,
        groups=(GroupSpec("AA", 0.3, 1.0, 1.0), GroupSpec("BB", 0.2, 1.0, 1.0)),
        collab_fraction=0.5, rng_seed=4,
    )
    cohorts = generate(spec)
    for cohort in cohorts:
        again = Cohort(cohort.journal_id, cohort.year, cohort.records[::-1])
        assert again != cohort
        assert Cohort(cohort.journal_id, cohort.year, again.records[::-1]) == cohort
    assert cohorts[0] != cohorts[1]
