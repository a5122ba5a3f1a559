"""Temporal stability of indicator values against earlier confidence intervals.

For every (journal, year, country, scheme) cell the indicator and its
interval are computed; then, for each year offset k >= 1, the later year's
point value is tested for membership in the earlier year's interval, never
interval against interval. Same-journal pairs only. Membership is closed at
the endpoints. Cells whose base interval is unbounded are excluded from
coverage, since an unbounded interval would trivially contain everything;
all exclusions are tallied. The offset-0 point of a curve comes from the
split-half baseline and is flagged as simulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

from .bootstrap import lag0_batch
from .counting import membership
from .errors import DegenerateField, ValidationError
from .fieller import CiSettings, estimate, estimates
from .indicator import log_stats_from_logs
from .model import Cohort, EstimateStatus, MnlcsEstimate, Scheme


@dataclass(frozen=True)
class CellResult:
    """Indicator estimate for one (journal, year, country, scheme)."""

    journal_id: str
    year: int
    country: str
    scheme: Scheme
    estimate: MnlcsEstimate


@dataclass(frozen=True)
class CurvePoint:
    offset_years: int
    inside_fraction: float
    n_comparisons: int
    simulated: bool = False


@dataclass(frozen=True)
class CoverageCurve:
    country: str
    scheme: Scheme
    points: tuple[CurvePoint, ...]

    def __post_init__(self):
        offsets = [p.offset_years for p in self.points]
        if offsets != sorted(set(offsets)):
            raise ValidationError("curve offsets must be strictly increasing")
        for p in self.points:
            if p.n_comparisons <= 0:
                raise ValidationError("curve points need n_comparisons > 0")
            if not 0.0 <= p.inside_fraction <= 1.0:
                raise ValidationError("inside_fraction must be within [0, 1]")


@dataclass(frozen=True)
class ExclusionRecord:
    """One tally of skipped work: where, why and how many."""

    stage: str
    reason: str
    count: int
    journal_id: str = ""
    year: int | None = None
    country: str = ""
    scheme: Scheme | None = None
    offset: int | None = None


# cells per interval call: amortises the call's fixed cost over many cohorts
# while the per-cell inputs held besides the results stay small
CELL_CHUNK = 256


def compute_cells(
    cohorts: Iterable[Cohort],
    countries: Sequence[str],
    schemes: Sequence[Scheme],
    settings: CiSettings = CiSettings(),
    exclusions: list[ExclusionRecord] | None = None,
) -> list[CellResult]:
    """Estimate every (journal, year, country, scheme) cell with any group data.

    Cells exist whenever the group is non-empty and the field mean is
    positive; their status records whether an interval was possible. Cohorts
    with a zero field mean and empty group selections are skipped and
    tallied. Each cohort's groups come from one membership matrix, in
    country-major, scheme-minor order; the cells then get their intervals
    from one call of ``estimates`` per CELL_CHUNK cells.
    """
    exclusions = [] if exclusions is None else exclusions
    cells, stats = [], _cell_stats(cohorts, countries, schemes, exclusions)
    while chunk := list(islice(stats, CELL_CHUNK)):
        keys, groups, fields = zip(*chunk)
        ests = estimates(groups, fields, settings)
        cells += [CellResult(*key, estimate=est) for key, est in zip(keys, ests)]
    return cells


def _cell_stats(cohorts, countries, schemes, exclusions):
    """(cell key, group LogStats, field LogStats) of every cell, in order."""
    targets = [(country, scheme) for country in countries for scheme in schemes]
    for cohort in cohorts:
        field_stats = log_stats_from_logs(cohort.log_citations)
        if field_stats.mean <= 0.0:
            exclusions.append(
                ExclusionRecord(
                    stage="cells",
                    reason="degenerate_field",
                    count=len(targets),
                    journal_id=cohort.journal_id,
                    year=cohort.year,
                )
            )
            continue
        for (country, scheme), members in zip(targets, membership(cohort, targets)):
            if not members.any():
                exclusions.append(
                    ExclusionRecord(
                        stage="cells",
                        reason="empty_group",
                        count=1,
                        journal_id=cohort.journal_id,
                        year=cohort.year,
                        country=country,
                        scheme=scheme,
                    )
                )
                continue
            key = (cohort.journal_id, cohort.year, country, scheme)
            yield key, log_stats_from_logs(cohort.log_citations[members]), field_stats


def enumerate_pairs(years: range, offset: int) -> list[tuple[int, int]]:
    """All (base_year, later_year) pairs in ``years`` separated by ``offset``."""
    if offset < 1:
        raise ValueError(f"offset must be >= 1, got {offset}")
    return [(y, y + offset) for y in years if (y + offset) in years]


def coverage_curve(
    cells: Iterable[CellResult],
    *,
    country: str,
    scheme: Scheme,
    years: range,
    max_offset: int,
    lag0_point: CurvePoint | None = None,
    exclusions: list[ExclusionRecord] | None = None,
) -> CoverageCurve:
    """Per-offset fraction of later values inside earlier intervals.

    Base cells participate only with a bounded (OK) interval; later cells
    only need a point value. Offsets with no valid pairs emit no point.
    """
    index: dict[tuple[str, int], CellResult] = {}
    journals = set()
    for cell in cells:
        if cell.country != country or cell.scheme != scheme:
            continue
        index[(cell.journal_id, cell.year)] = cell
        journals.add(cell.journal_id)

    def _exclude(offset: int, reason: str, count: int):
        if exclusions is not None and count > 0:
            exclusions.append(
                ExclusionRecord(
                    stage="curve",
                    reason=reason,
                    count=count,
                    country=country,
                    scheme=scheme,
                    offset=offset,
                )
            )

    points = [] if lag0_point is None else [lag0_point]
    journal_ids = sorted(journals)
    for offset in range(1, max_offset + 1):
        inside = 0
        n = 0
        n_base_unusable = 0
        n_later_missing = 0
        pairs = enumerate_pairs(years, offset)
        for journal_id in journal_ids:
            for base_year, later_year in pairs:
                base = index.get((journal_id, base_year))
                later = index.get((journal_id, later_year))
                if base is None or base.estimate.status is not EstimateStatus.OK:
                    n_base_unusable += 1
                    continue
                if later is None:
                    n_later_missing += 1
                    continue
                n += 1
                if base.estimate.contains(later.estimate.value):
                    inside += 1
        _exclude(offset, "base_interval_unusable", n_base_unusable)
        _exclude(offset, "later_value_missing", n_later_missing)
        if n > 0:
            points.append(CurvePoint(offset, inside / n, n))
        else:
            _exclude(offset, "no_valid_pairs", 1)
    return CoverageCurve(country=country, scheme=scheme, points=tuple(points))


def lag0_curve_points(
    cohorts: Sequence[Cohort],
    targets: Sequence[tuple[str, Scheme]],
    replicates: int,
    rng_seed: int,
    settings: CiSettings = CiSettings(),
    exclusions: list[ExclusionRecord] | None = None,
) -> dict[tuple[str, Scheme], CurvePoint | None]:
    """Offset-0 points: split-half coverage averaged over journal-years.

    Each target's fraction is the unweighted mean of per-journal-year
    coverages; n_comparisons totals the valid replicates behind it.
    Journal-years with no valid replicates are tallied and skipped; a target
    nothing contributes to maps to None. All targets share each cohort's
    splits, so one pass over the cohorts serves every country and scheme.
    """
    fractions: dict[tuple[str, Scheme], list[float]] = {t: [] for t in targets}
    totals: dict[tuple[str, Scheme], int] = {t: 0 for t in targets}
    for cohort in cohorts:
        if cohort.size < 2:
            continue
        table = lag0_batch(cohort, targets, replicates, rng_seed, settings)
        for target, result in table.items():
            if exclusions is not None and result.n_excluded > 0:
                exclusions.append(
                    ExclusionRecord(
                        stage="lag0",
                        reason="replicates_excluded",
                        count=result.n_excluded,
                        journal_id=cohort.journal_id,
                        year=cohort.year,
                        country=target[0],
                        scheme=target[1],
                        offset=0,
                    )
                )
            if result.n_valid == 0:
                continue
            fractions[target].append(result.fraction)
            totals[target] += result.n_valid
    return {
        target: (
            CurvePoint(
                offset_years=0,
                inside_fraction=sum(fracs) / len(fracs),
                n_comparisons=totals[target],
                simulated=True,
            )
            if fracs
            else None
        )
        for target, fracs in fractions.items()
    }


@dataclass(frozen=True)
class SeriesPoint:
    """One year of a per-journal indicator time series; missing or CI-less
    years appear with the gap marked rather than silently dropped."""

    year: int
    value: float | None
    ci_low: float | None
    ci_high: float | None
    status: str


def series_report(
    cells: Iterable[CellResult],
    *,
    journal_id: str,
    country: str,
    scheme: Scheme,
    years: range,
) -> list[SeriesPoint]:
    """Ordered-by-year series for one journal/country/scheme, for plotting.

    Reported lower bounds are clamped at zero (the indicator is
    nonnegative); the unclamped bounds stay available on the cells.
    """
    index = {
        cell.year: cell
        for cell in cells
        if cell.journal_id == journal_id
        and cell.country == country
        and cell.scheme == scheme
    }
    points = []
    for year in years:
        cell = index.get(year)
        if cell is None:
            points.append(SeriesPoint(year, None, None, None, "missing"))
            continue
        est = cell.estimate
        points.append(
            SeriesPoint(
                year=year,
                value=est.value,
                ci_low=est.ci_low_reported,
                ci_high=est.ci_high,
                status=est.status.value,
            )
        )
    return points


def whole_journal_estimate(cohort: Cohort, settings: CiSettings = CiSettings()) -> MnlcsEstimate:
    """Indicator of the whole cohort against itself; identically 1 by design."""
    field_stats = log_stats_from_logs(cohort.log_citations)
    if field_stats.mean <= 0.0:
        raise DegenerateField("field mean of ln(1+c) is zero")
    return estimate(field_stats, field_stats, settings)
