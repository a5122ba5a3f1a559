"""Synthetic citation data under a latent group-capability model.

Each national group has a latent log-scale capability mu that sets the
citation level of its articles; counts are drawn from a discretised
lognormal, c = max(0, round(exp(y)) - 1) with y ~ Normal(mu, sigma^2), so
that the analysis transform ln(1+c) recovers approximately Normal(mu,
sigma^2) data. How mu evolves over years is the scenario's capability mode:

    Static              constant capability, the "nothing changes" extreme
    RandomWalk(step)    capability drifts as a Gaussian walk
    LinearDrift(slope)  deterministic trend, slope per year
    IndependentResample(spread)
                        capability redrawn around the base level every year,
                        the "no year-to-year memory" extreme

Capability paths evolve independently per (journal, group): a country's
standing in one journal's specialty does not constrain its standing in
another. Generation is deterministic given the scenario (see rngtools).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ValidationError
from .model import Cohort
from .rngtools import stream, streams

# keeps exp(y) far below 2^63 so integer conversion cannot overflow
_MAX_LOG_COUNT = 42.0


@dataclass(frozen=True)
class Static:
    pass


@dataclass(frozen=True)
class RandomWalk:
    step: float

    def __post_init__(self):
        if self.step < 0:
            raise ValidationError("random walk step must be >= 0")


@dataclass(frozen=True)
class LinearDrift:
    slope: float


@dataclass(frozen=True)
class IndependentResample:
    spread: float

    def __post_init__(self):
        if self.spread < 0:
            raise ValidationError("resample spread must be >= 0")


CapabilityMode = Union[Static, RandomWalk, LinearDrift, IndependentResample]


@dataclass(frozen=True)
class GroupSpec:
    """One national group: share of the field and base lognormal parameters."""

    country: str
    share: float
    mu: float
    sigma: float

    def __post_init__(self):
        if not 0.0 < self.share <= 1.0:
            raise ValidationError(f"share must be in (0, 1], got {self.share}")
        if self.sigma <= 0.0:
            raise ValidationError(f"sigma must be > 0, got {self.sigma}")


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of one synthetic experiment.

    Group articles are drawn with the group's current capability mu; the
    remainder of each cohort uses the field baseline (field_mu, field_sigma)
    and carries no country label. A collab_fraction of each group's articles
    additionally receives the collab_partner label, so inclusive and
    exclusive counting genuinely differ when it is positive.
    """

    n_journals: int
    year_start: int
    year_end: int
    field_size_per_year: int
    groups: tuple[GroupSpec, ...]
    capability_mode: CapabilityMode = field(default_factory=Static)
    field_mu: float = 1.0
    field_sigma: float = 1.0
    collab_fraction: float = 0.0
    collab_partner: str = "ZZ"
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_journals < 1:
            raise ValidationError("n_journals must be >= 1")
        if self.year_end < self.year_start:
            raise ValidationError("year_end must be >= year_start")
        if self.field_size_per_year < 1:
            raise ValidationError("field_size_per_year must be >= 1")
        if self.field_sigma <= 0.0:
            raise ValidationError("field_sigma must be > 0")
        if not 0.0 <= self.collab_fraction <= 1.0:
            raise ValidationError("collab_fraction must be in [0, 1]")
        if self.rng_seed < 0:
            raise ValidationError("rng_seed must be >= 0")
        if sum(g.share for g in self.groups) > 1.0 + 1e-12:
            raise ValidationError("group shares must sum to at most 1")
        seen = set()
        for g in self.groups:
            if g.country in seen:
                raise ValidationError(f"duplicate group country {g.country}")
            seen.add(g.country)

    @property
    def years(self) -> range:
        return range(self.year_start, self.year_end + 1)

    @property
    def journal_ids(self) -> tuple[str, ...]:
        width = len(str(self.n_journals))
        return tuple(f"J{i:0{width}d}" for i in range(1, self.n_journals + 1))


def sample_citations(
    mu: float, sigma: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw n discretised-lognormal citation counts, c = max(0, round(e^y) - 1)."""
    if sigma < 0:
        raise ValidationError("sigma must be >= 0")
    if n < 1:
        raise ValidationError("n must be >= 1")
    return _counts(rng.normal(mu, sigma, size=n) if sigma > 0 else np.full(n, float(mu)))


def _counts(y: np.ndarray) -> np.ndarray:
    """Citation counts max(0, round(e^y) - 1) of log-scale draws y."""
    return np.maximum(np.rint(np.exp(np.minimum(y, _MAX_LOG_COUNT))) - 1.0, 0.0).astype(np.int64)


def capability_path(spec: ScenarioSpec, journal_id: str, group: GroupSpec) -> dict[int, float]:
    """The group's capability mu per year in one journal, per the scenario mode."""
    mode = spec.capability_mode
    years = list(spec.years)
    if isinstance(mode, Static):
        return {y: group.mu for y in years}
    if isinstance(mode, LinearDrift):
        return {y: group.mu + mode.slope * (y - spec.year_start) for y in years}
    rng = stream(spec.rng_seed, "capability", journal_id, group.country)
    if isinstance(mode, RandomWalk):
        path = {}
        mu = group.mu
        for y in years:
            path[y] = mu
            mu += rng.normal(0.0, mode.step) if mode.step > 0 else 0.0
        return path
    if isinstance(mode, IndependentResample):
        offsets = rng.normal(0.0, mode.spread, size=len(years)) if mode.spread > 0 else np.zeros(len(years))
        return {y: group.mu + off for y, off in zip(years, offsets)}
    raise ValidationError(f"unknown capability mode: {mode!r}")


def generate(spec: ScenarioSpec) -> list[Cohort]:
    """Generate one cohort per (journal, year), sorted by journal then year.

    Within a cohort each group's articles come in spec order, the first
    collab_fraction of them also labelled collab_partner, followed by the
    unlabelled rest of the field. The labels depend only on the spec, so they
    are put in canonical form once and every cohort shares the same
    read-only codes and sets (``Cohort.with_citations``).
    """
    sets = [frozenset()]
    codes = []
    sizes = {}
    for g in spec.groups:
        # floor keeps the sum of group sizes within the field even when shares
        # sum to exactly 1
        n_g = int(g.share * spec.field_size_per_year)
        if n_g == 0:
            continue
        sizes[g] = n_g
        n_collab = int(n_g * spec.collab_fraction + 0.5)
        sets += [frozenset((g.country, spec.collab_partner)), frozenset((g.country,))]
        codes += [len(sets) - 2] * n_collab + [len(sets) - 1] * (n_g - n_collab)
    n_rest = spec.field_size_per_year - sum(sizes.values())
    codes = np.array(codes + [0] * n_rest, dtype=np.intp)
    labels = [g.country for g in sizes] + ["__rest__"] * (n_rest > 0)
    rngs = streams(spec.rng_seed, [("citations", j, year, label) for j in spec.journal_ids
                                   for year in spec.years for label in labels])

    shared = Cohort(spec.journal_ids[0], spec.year_start, np.zeros(len(codes)), codes, sets)
    cohorts = []
    for journal_id in spec.journal_ids:
        paths = {g.country: capability_path(spec, journal_id, g) for g in spec.groups}
        for year in spec.years:
            logs = [next(rngs).normal(paths[g.country][year], g.sigma, size=n) for g, n in sizes.items()]
            if n_rest > 0:
                logs.append(next(rngs).normal(spec.field_mu, spec.field_sigma, size=n_rest))
            cohorts.append(shared.with_citations(journal_id, year, _counts(np.concatenate(logs))))
    return cohorts
