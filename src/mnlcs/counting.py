"""National group assignment under the two whole-counting schemes.

Inclusive counting takes every article with any author from the country;
exclusive counting takes only articles whose author countries are exactly
that one country, dropping internationally co-authored work. Both are pure
functions over immutable cohorts.

``membership`` is the one place that decides who belongs to a group: it
returns a bool matrix [targets, n] for a cohort and a list of (country,
scheme) targets, deciding each of the cohort's distinct author-country
sets once and broadcasting the answer through the cohort's set codes.
Cells, the split-half engine and ``select_group`` all read rows of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from .model import Cohort, GroupSelection, Scheme


def membership(cohort: Cohort, targets: Sequence[tuple[str, Scheme]]) -> np.ndarray:
    """bool [targets, n]: inclusive is any author from the country, exclusive
    is the country alone. Decided once per distinct author-country set."""
    table = np.array(
        [
            [country in s if scheme is Scheme.INCLUSIVE else s == {country} for s in cohort.sets]
            for country, scheme in targets
        ],
        dtype=bool,
    ).reshape(len(targets), len(cohort.sets))
    return table[:, cohort.codes]


def select_group(cohort: Cohort, country: str, scheme: Scheme) -> GroupSelection:
    """Select the cohort records belonging to ``country`` under ``scheme``.

    An empty selection is a valid result; records with an empty country set
    are never selected.
    """
    row = membership(cohort, [(country, scheme)])[0]
    return GroupSelection(country, scheme, tuple(np.flatnonzero(row).tolist()))


@dataclass(frozen=True)
class RankedCountries:
    """Countries ranked by inclusive article count; ``complete`` is False when
    fewer distinct countries exist than were requested."""

    countries: tuple[str, ...]
    requested: int

    @property
    def complete(self) -> bool:
        return len(self.countries) >= self.requested


def inclusive_counts(cohorts: Iterable[Cohort]) -> Counter[str]:
    counts: Counter[str] = Counter()
    for cohort in cohorts:
        per_set = np.bincount(cohort.codes, minlength=len(cohort.sets)).tolist()
        for countries, k in zip(cohort.sets, per_set):
            for country in countries:
                counts[country] += k
    return counts


def top_countries(cohorts: Iterable[Cohort], k: int) -> RankedCountries:
    """Rank countries by inclusive article count, ties broken lexicographically."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    counts = inclusive_counts(cohorts)
    ranked = sorted(counts, key=lambda c: (-counts[c], c))
    return RankedCountries(countries=tuple(ranked[:k]), requested=k)
