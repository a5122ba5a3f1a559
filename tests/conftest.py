import pytest
from hypothesis import strategies as st

from mnlcs.model import CitationRecord, Cohort


def rec(journal="J1", year=2000, citations=0, countries=()):
    return CitationRecord(journal, year, citations, frozenset(countries))


def cohort(citation_country_pairs, journal="J1", year=2000):
    """Cohort from (citations, countries) pairs."""
    return Cohort(
        journal,
        year,
        tuple(rec(journal, year, c, countries) for c, countries in citation_country_pairs),
    )


country_codes = st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=2, max_size=2)

records = st.builds(
    CitationRecord,
    journal_id=st.text(
        alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.",
        min_size=1,
        max_size=12,
    ),
    year=st.integers(min_value=1900, max_value=2100),
    citations=st.integers(min_value=0, max_value=10**6),
    countries=st.frozensets(country_codes, max_size=4),
)


@pytest.fixture
def simple_cohort():
    return cohort(
        [
            (0, ()),
            (1, ("US",)),
            (3, ("US", "JP")),
            (7, ("JP",)),
            (2, ("DE",)),
            (2, ("US",)),
            (5, ()),
            (1, ("GB", "US")),
        ]
    )
