"""National group assignment under the two whole-counting schemes.

Inclusive counting takes every article with any author from the country;
exclusive counting takes only articles whose author countries are exactly
that one country, dropping internationally co-authored work. Both are pure
functions over immutable cohorts.

``set_membership`` is the one place that decides who belongs to a group: it
returns a read-only bool table [targets, sets] for a cohort's distinct
author-country sets and a tuple of (country, scheme) targets, cached so
cohorts that share their sets decide them once. ``membership`` broadcasts
it through the cohort's set codes to [targets, n] for cells and
``select_group``; the split-half engine reads the table directly.

``top_countries`` adds up each cohort's article count per set, one array
per distinct ``sets`` tuple, and tallies the countries once per tuple:
generated cohorts all share one tuple, and ingested cohorts share one per
pattern of the sets they use.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError
from .model import Cohort, GroupSelection, Scheme


@lru_cache(maxsize=128)
def set_membership(
    sets: tuple[frozenset[str], ...], targets: tuple[tuple[str, Scheme], ...]
) -> np.ndarray:
    """Read-only bool [targets, sets]: inclusive is any author from the
    country, exclusive is the country alone."""
    table = np.array(
        [
            [country in s if scheme is Scheme.INCLUSIVE else s == {country} for s in sets]
            for country, scheme in targets
        ],
        dtype=bool,
    ).reshape(len(targets), len(sets))
    table.setflags(write=False)
    return table


def membership(cohort: Cohort, targets: Sequence[tuple[str, Scheme]]) -> np.ndarray:
    """bool [targets, n]: row k marks the articles in target k's group."""
    return set_membership(cohort.sets, tuple(targets))[:, cohort.codes]


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


def top_countries(cohorts: Iterable[Cohort], k: int) -> RankedCountries:
    """Rank countries by inclusive article count, ties broken lexicographically.

    Each cohort's article count per set adds into one array per distinct
    ``sets`` tuple, and each tuple's sets are then counted once.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    per_set: dict[tuple[frozenset[str], ...], np.ndarray] = {}
    for cohort in cohorts:
        n = np.bincount(cohort.codes, minlength=len(cohort.sets))
        if (total := per_set.get(cohort.sets)) is None:
            per_set[cohort.sets] = n
        else:
            total += n
    counts: Counter[str] = Counter()
    for sets, total in per_set.items():
        for countries, n in zip(sets, total.tolist()):
            for country in countries:
                counts[country] += n
    ranked = sorted(counts, key=lambda c: (-counts[c], c))
    return RankedCountries(countries=tuple(ranked[:k]), requested=k)
