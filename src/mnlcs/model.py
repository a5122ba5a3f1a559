"""Core domain types.

A ``Cohort`` is every article of one journal in one year and acts as the
normalisation universe. It is columnar: ``citations`` holds each article's
count, ``codes`` indexes each article's author-country set in ``sets``, the
cohort's distinct sets in canonical order. ``CitationRecord`` is one article
as the CSV boundary sees it; ``Cohort(journal_id, year, records)`` and
``Cohort.records`` convert between the two forms. A ``GroupSelection``
picks the national subset under one counting scheme; ``LogStats``
summarises ln(1+c) for a set of articles; ``MnlcsEstimate`` carries the
indicator value with its confidence interval and validity flag.

All types are immutable after construction (a cohort's arrays are
read-only) and safe to share across parallel tasks.

The field rules (``parse_year``, ``parse_citations``, ``parse_countries``,
``check_journal_id``, ``check_citations``, ``check_country_code``) are shared by
``validate_record`` and the columnar CSV ingest, so both routes accept and
reject the same rows with the same messages. ``normalize_country_token``,
the rule for one country token, also normalises a config's countries.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress
from typing import Mapping

import numpy as np

from .errors import (
    MalformedCountry,
    NegativeCitations,
    UnparseableYear,
    ValidationError,
)

# Sanity bounds on plausible publication years; a run's year_min and year_max
# filters narrow them at ingestion.
YEAR_MIN = 1000
YEAR_MAX = 2999

# The CSV schema is unquoted, so identifiers must not collide with delimiters.
_JOURNAL_ID_RE = re.compile(r"[^,;\r\n]+")
_COUNTRY_CODE_RE = re.compile(r"[A-Z]{2}")
_COUNTRY_TOKEN_RE = re.compile(r"[A-Za-z]{2}")  # a country token that is a code in either case


class Scheme(str, enum.Enum):
    """Whole-counting scheme for assigning articles to a country."""

    INCLUSIVE = "inclusive"
    EXCLUSIVE = "exclusive"


class EstimateStatus(str, enum.Enum):
    OK = "ok"
    UNBOUNDED_FIELLER = "unbounded_fieller"
    INSUFFICIENT_DATA = "insufficient_data"


def check_journal_id(journal_id: str) -> str:
    """Return ``journal_id`` if it can live in the unquoted CSV schema."""
    if not journal_id or not _JOURNAL_ID_RE.fullmatch(journal_id):
        raise ValidationError(f"bad journal_id: {journal_id!r}")
    return journal_id


def check_country_code(code: str) -> None:
    if not _COUNTRY_CODE_RE.fullmatch(code):
        raise MalformedCountry(f"country code must be ISO alpha-2: {code!r}")


def check_citations(citations: int) -> None:
    if citations < 0:
        raise NegativeCitations(f"citations must be >= 0, got {citations}")


def parse_year(raw: object) -> int:
    try:
        year = int(str(raw).strip())
    except ValueError:
        raise UnparseableYear(f"unparseable year: {raw!r}") from None
    if not YEAR_MIN <= year <= YEAR_MAX:
        raise UnparseableYear(f"year {year} outside [{YEAR_MIN}, {YEAR_MAX}]")
    return year


def parse_citations(raw: object) -> int:
    """The count as written, if int64 holds it; negative counts are rejected
    with the record."""
    try:
        citations = int(str(raw).strip())
    except ValueError:
        raise ValidationError(f"unparseable citations: {raw!r}") from None
    if not -2**63 <= citations < 2**63:
        raise ValidationError(f"citations beyond int64: {raw!r}")
    return citations


# Affiliation exports rarely agree on country spelling, so a country token may
# be a name: those of the countries that dominate journal-level national
# output, with common variants. Anything unrecognised is rejected, not guessed.
COUNTRY_NAME_TO_CODE: dict[str, str] = {
    "united states": "US",
    "united states of america": "US",
    "usa": "US",
    "united kingdom": "GB",
    "uk": "GB",
    "great britain": "GB",
    "england": "GB",
    "scotland": "GB",
    "wales": "GB",
    "northern ireland": "GB",
    "japan": "JP",
    "germany": "DE",
    "france": "FR",
    "china": "CN",
    "peoples r china": "CN",
    "peoples republic of china": "CN",
    "pr china": "CN",
    "italy": "IT",
    "spain": "ES",
    "canada": "CA",
    "india": "IN",
    "south korea": "KR",
    "republic of korea": "KR",
    "korea": "KR",
    "russia": "RU",
    "russian federation": "RU",
    "ussr": "RU",
    "netherlands": "NL",
    "the netherlands": "NL",
    "holland": "NL",
    "australia": "AU",
    "brazil": "BR",
    "switzerland": "CH",
    "sweden": "SE",
    "poland": "PL",
    "belgium": "BE",
    "taiwan": "TW",
    "israel": "IL",
    "austria": "AT",
    "denmark": "DK",
    "finland": "FI",
    "norway": "NO",
    "greece": "GR",
    "portugal": "PT",
    "czech republic": "CZ",
    "czechia": "CZ",
    "czechoslovakia": "CZ",
    "hungary": "HU",
    "ireland": "IE",
    "mexico": "MX",
    "turkey": "TR",
    "iran": "IR",
    "egypt": "EG",
    "south africa": "ZA",
    "argentina": "AR",
    "chile": "CL",
    "new zealand": "NZ",
    "singapore": "SG",
    "ukraine": "UA",
    "romania": "RO",
    "slovakia": "SK",
    "slovenia": "SI",
    "croatia": "HR",
    "bulgaria": "BG",
    "serbia": "RS",
    "thailand": "TH",
    "malaysia": "MY",
    "indonesia": "ID",
    "vietnam": "VN",
    "viet nam": "VN",
    "philippines": "PH",
    "pakistan": "PK",
    "saudi arabia": "SA",
    "hong kong": "HK",
    "colombia": "CO",
    "venezuela": "VE",
    "peru": "PE",
    "cuba": "CU",
    "morocco": "MA",
    "tunisia": "TN",
    "nigeria": "NG",
    "kenya": "KE",
    "estonia": "EE",
    "latvia": "LV",
    "lithuania": "LT",
    "belarus": "BY",
    "iceland": "IS",
    "luxembourg": "LU",
}


def normalize_country_token(token: str) -> str:
    """Map a raw country token to an uppercase ISO alpha-2 code.

    Raises MalformedCountry when the token is neither a two-letter code nor
    a recognised country name.
    """
    stripped = token.strip()
    if not stripped:
        raise MalformedCountry("empty country token")
    if _COUNTRY_TOKEN_RE.fullmatch(stripped):
        return stripped.upper()
    cleaned = stripped.replace(".", " ").replace("'", "").replace(",", " ")
    code = COUNTRY_NAME_TO_CODE.get(" ".join(cleaned.lower().split()))
    if code is None:
        raise MalformedCountry(f"unrecognised country token: {token!r}")
    return code


def parse_countries(field: str) -> frozenset[str]:
    """Semicolon-separated country tokens as a set of ISO alpha-2 codes.

    Free-text names go through the bundled lookup table; blank tokens are
    skipped and duplicates merge, so an empty field gives the empty set.
    """
    return frozenset(
        normalize_country_token(token) for token in field.split(";") if token.strip()
    )


@dataclass(frozen=True)
class CitationRecord:
    """One article: journal, year, citation count and author-country set."""

    journal_id: str
    year: int
    citations: int
    countries: frozenset[str]

    def __post_init__(self):
        check_journal_id(self.journal_id)
        check_citations(self.citations)
        for code in self.countries:
            check_country_code(code)


def validate_record(raw: Mapping[str, object]) -> CitationRecord:
    """Build a normalised CitationRecord from a parsed row.

    ``raw`` must provide journal_id, year, citations and countries fields.
    Country tokens are parsed by ``parse_countries``. An empty countries
    field yields an empty set; such records stay in the cohort denominator
    but can never join a national group.
    """
    for field in ("journal_id", "year", "citations", "countries"):
        if field not in raw:
            raise ValidationError(f"missing field: {field}")

    return CitationRecord(
        journal_id=str(raw["journal_id"]).strip(),
        year=parse_year(raw["year"]),
        citations=parse_citations(raw["citations"]),
        countries=parse_countries(str(raw["countries"])),
    )


@lru_cache(maxsize=64)
def _set_order(sets: tuple[frozenset, ...]) -> tuple[np.ndarray, tuple]:
    """(rank, ranked) of a sets tuple: ``ranked`` holds its distinct sets
    sorted by their sorted country tuples, and ``sets[i]`` equals
    ``ranked[rank[i]]``. Cohorts that share a sets tuple share this order."""
    keys = [tuple(sorted(s)) for s in sets]
    ranked = sorted(set(keys))
    index = {key: r for r, key in enumerate(ranked)}
    rank = np.array([index[key] for key in keys], dtype=np.intp)
    rank.setflags(write=False)
    return rank, tuple(frozenset(key) for key in ranked)


@lru_cache(maxsize=1024)
def _check_countries(countries: frozenset[str]) -> None:
    """``check_country_code`` on each code of a set; a passed set is cached."""
    for code in countries:
        check_country_code(code)


def _canonical_codes(sets: tuple[frozenset, ...]):
    """A function from codes into ``sets`` to (codes, sets) in canonical
    form: unused sets dropped, equal ones merged and the rest sorted by
    their sorted country tuples, with the codes remapped to match. ``sets``
    is ordered once (``_set_order``), and each distinct pattern of used sets
    gets one remap and one shared tuple, whose country codes are checked
    when the pattern is first seen."""
    rank, ranked = _set_order(sets)
    patterns: dict[bytes, tuple[np.ndarray, tuple]] = {}

    def canonical(codes) -> tuple[np.ndarray, tuple]:
        ranks = rank[codes]
        used = np.zeros(len(ranked), dtype=bool)
        used[ranks] = True
        pattern = patterns.get(key := used.tobytes())
        if pattern is None:
            pattern = patterns[key] = (np.cumsum(used, dtype=np.intp) - 1,
                                       tuple(compress(ranked, used)))
            for s in pattern[1]:
                _check_countries(s)
        return pattern[0][ranks], pattern[1]

    return canonical


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False, init=False)
class Cohort:
    """All articles of one journal-year: the field for normalisation.

    Article i has ``citations[i]`` citations and author-country set
    ``sets[codes[i]]``. ``sets`` holds each distinct set in use once, sorted
    by ``tuple(sorted(s))``, so cohorts with the same articles in the same
    order have identical columns. Both arrays are read-only.

    ``Cohort(journal_id, year, records)`` takes CitationRecords that all belong to it.
    """

    journal_id: str
    year: int
    citations: np.ndarray
    codes: np.ndarray
    sets: tuple[frozenset[str], ...]

    def __init__(self, journal_id, year, citations, codes=None, sets=None):
        if codes is None and sets is None:  # the third argument holds CitationRecords
            records, citations, codes, index = citations, [], [], {}
            for rec in records:
                if rec.journal_id != journal_id or rec.year != year:
                    raise ValidationError(
                        f"record ({rec.journal_id}, {rec.year}) does not belong to "
                        f"cohort ({journal_id}, {year})"
                    )
                citations.append(rec.citations)
                codes.append(index.setdefault(rec.countries, len(index)))
            sets = list(index)
        citations = np.array(citations, dtype=np.int64)
        codes = np.array(codes, dtype=np.intp)
        sets = tuple(sets)
        if citations.ndim != 1 or citations.shape != codes.shape:
            raise ValidationError("citations and codes must be 1-d and of equal length")
        if not citations.size:
            raise ValidationError("cohort must be non-empty")
        check_journal_id(journal_id)
        check_citations(citations.min())
        if codes.min() < 0 or codes.max() >= len(sets):
            raise ValidationError(f"set codes must lie in [0, {len(sets)})")
        codes, sets = _canonical_codes(tuple(map(frozenset, sets)))(codes)
        Cohort._trusted(journal_id, year, citations, codes, sets, self)

    @staticmethod
    def _trusted(journal_id, year, citations, codes, sets, cohort=None) -> Cohort:
        """The cohort of columns that are already checked and canonical:
        int64 ``citations`` and intp ``codes`` that nothing else writes, frozen
        in place, and ``sets`` as ``_canonical_codes`` gives them. Nothing is
        checked. ``cohort``, if given, is the instance to fill."""
        cohort = object.__new__(Cohort) if cohort is None else cohort
        # frozen: the fields go straight into its __dict__
        vars(cohort).update(journal_id=journal_id, year=year, citations=_frozen(citations),
                            codes=_frozen(codes), sets=sets)
        return cohort

    def with_citations(self, journal_id: str, year: int, citations) -> Cohort:
        """A cohort sharing this one's canonical, checked ``codes`` and ``sets``;
        the journal id and ``citations`` are checked as the constructor does."""
        citations = np.array(citations, dtype=np.int64)
        if citations.shape != self.codes.shape:
            raise ValidationError("citations and codes must be 1-d and of equal length")
        check_journal_id(journal_id)
        check_citations(citations.min())
        return Cohort._trusted(journal_id, year, citations, self.codes, self.sets)

    @property
    def records(self) -> tuple[CitationRecord, ...]:
        """The articles as CitationRecords, in order; built on every access."""
        return tuple(
            CitationRecord(self.journal_id, self.year, c, self.sets[k])
            for c, k in zip(self.citations.tolist(), self.codes.tolist())
        )

    @property
    def size(self) -> int:
        return len(self.citations)

    @cached_property
    def log_citations(self) -> np.ndarray:
        """ln(1+c) per article, in order. Cached and read-only."""
        return _frozen(np.log1p(self.citations.astype(np.float64)))

    def __eq__(self, other):
        if not isinstance(other, Cohort):
            return NotImplemented
        return (
            (self.journal_id, self.year, self.sets) == (other.journal_id, other.year, other.sets)
            and np.array_equal(self.citations, other.citations)
            and np.array_equal(self.codes, other.codes)
        )


@dataclass(frozen=True)
class GroupSelection:
    """Indices of the cohort records belonging to one country under one scheme."""

    country: str
    scheme: Scheme
    member_indices: tuple[int, ...]

    def __post_init__(self):
        if list(self.member_indices) != sorted(set(self.member_indices)):
            raise ValidationError("member_indices must be sorted and unique")

    @property
    def size(self) -> int:
        return len(self.member_indices)


@dataclass(frozen=True)
class LogStats:
    """Sample size, mean and standard error of ln(1+c) over a set of articles.

    The standard error is undefined for a single observation, so ``se`` is
    None exactly when n == 1 (never zero-filled).
    """

    n: int
    mean: float
    se: float | None

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"LogStats needs n >= 1, got {self.n}")
        if self.n == 1:
            if self.se is not None:
                raise ValidationError("se is undefined for n == 1; pass None")
        else:
            if self.se is None or self.se < 0:
                raise ValidationError(f"se must be >= 0 for n >= 2, got {self.se}")


@dataclass(frozen=True)
class MnlcsEstimate:
    """Indicator point value plus Fieller interval and validity flag.

    ``ci_low`` is the raw (unclamped) lower bound; coverage arithmetic uses
    it directly, while reports clamp at zero via ``ci_low_reported`` since
    the indicator itself cannot be negative. Bounds are None unless
    ``status`` is OK.
    """

    value: float
    ci_low: float | None
    ci_high: float | None
    h: float | None
    se_mnlcs: float | None
    n_group: int
    n_field: int
    status: EstimateStatus

    @property
    def ci_low_reported(self) -> float | None:
        if self.ci_low is None:
            return None
        return max(0.0, self.ci_low)

    def contains(self, x: float) -> bool:
        """Closed-interval membership test against the unclamped bounds."""
        if self.status is not EstimateStatus.OK:
            raise ValidationError(f"no usable interval: status={self.status.value}")
        return self.ci_low <= x <= self.ci_high
