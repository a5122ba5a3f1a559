"""Temporal stability of indicator values against earlier confidence intervals.

For every (journal, year, country, scheme) cell the indicator and its
interval are computed; then, for each year offset k >= 1, the later year's
point value is tested for membership in the earlier year's interval, never
interval against interval. Same-journal pairs only. Membership is closed at
the endpoints. Cells whose base interval is unbounded are excluded from
coverage, since an unbounded interval would trivially contain everything;
all exclusions are tallied. The offset-0 point of a curve comes from the
split-half baseline and is flagged as simulated.

Curves and series read a ``CellGrid``, built once from a run's cells: one
[target, journal, year] array per cell field, so the pairs at offset k are
the year columns ``[:, :-k]`` against ``[:, k:]`` and a series is one row.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

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


class CellGrid:
    """The cells of a run as [target, journal, year] arrays, for curves and series.

    ``journals`` (sorted) and ``targets``, (country, scheme) pairs, map to
    their index. The arrays: ``value``, the raw bounds ``ci_low``/``ci_high``
    (NaN where absent), ``ci_low_reported`` (clamped at zero), ``status`` (an
    index into ``STATUSES``) and the masks ``present`` and ``ok`` (bounded).
    ``has_cells`` [target, journal] marks the journals with any cell for the
    target, even outside ``years``. Of two cells with one key the later wins.
    """

    STATUSES = tuple(EstimateStatus)

    def __init__(self, cells: Sequence[CellResult], years: range):
        if years.step != 1:
            raise ValidationError(f"years must step by 1, got {years!r}")
        self.years = years
        self.journals = {j: i for i, j in enumerate(sorted({c.journal_id for c in cells}))}
        targets = dict.fromkeys((c.country, c.scheme) for c in cells)
        self.targets = {t: i for i, t in enumerate(targets)}
        shape = (len(self.targets), len(self.journals), len(years))
        t = np.array([self.targets[(c.country, c.scheme)] for c in cells], dtype=np.intp)
        j = np.array([self.journals[c.journal_id] for c in cells], dtype=np.intp)
        y = np.array([c.year for c in cells], dtype=np.intp) - years.start
        self.has_cells = np.zeros(shape[:2], dtype=bool)
        self.has_cells[t, j] = True

        # scatter the cells in ``years``, keeping the last of each key
        kept = np.flatnonzero((y >= 0) & (y < len(years)))[::-1]
        flat, first = np.unique(np.ravel_multi_index((t[kept], j[kept], y[kept]), shape),
                                return_index=True)
        kept = kept[first]
        ests = [c.estimate for c in cells]
        code = {s: i for i, s in enumerate(self.STATUSES)}

        def scatter(column, fill, dtype):
            out = np.full(shape, fill, dtype=dtype)
            out.reshape(-1)[flat] = np.array(column, dtype=dtype)[kept]
            return out

        self.value = scatter([e.value for e in ests], np.nan, np.float64)
        self.ci_low = scatter([e.ci_low for e in ests], np.nan, np.float64)
        self.ci_high = scatter([e.ci_high for e in ests], np.nan, np.float64)
        self.status = scatter([code[e.status] for e in ests], -1, np.int8)
        self.present = self.status >= 0
        self.ok = self.status == code[EstimateStatus.OK]
        # max(0.0, low) of the scalar report, NaN included
        self.ci_low_reported = np.where(self.ci_low > 0.0, self.ci_low, 0.0)


def coverage_curve(
    grid: CellGrid,
    *,
    country: str,
    scheme: Scheme,
    max_offset: int,
    lag0_point: CurvePoint | None = None,
    exclusions: list[ExclusionRecord] | None = None,
) -> CoverageCurve:
    """Per-offset fraction of later values inside earlier intervals.

    Each (year, year + offset) pair of every journal with a cell for the
    target counts if the base cell is OK and the later cell exists; the
    later value is tested against the raw base bounds, closed. Offsets with
    no valid pairs emit no point.
    """
    t = grid.targets.get((country, scheme))
    # [journal, year] rows of the journals taking part; none if no cell names the target
    ok, present, value, low, high = (
        np.empty((0, len(grid.years)), a.dtype) if t is None else a[t, grid.has_cells[t]]
        for a in (grid.ok, grid.present, grid.value, grid.ci_low, grid.ci_high)
    )
    points = [] if lag0_point is None else [lag0_point]
    for offset in range(1, max_offset + 1):
        # base and later columns; both are empty once offset >= len(years)
        base, later = ok[:, :-offset], value[:, offset:]
        valid = base & present[:, offset:]
        n_base_ok, n = int(np.count_nonzero(base)), int(np.count_nonzero(valid))
        if n > 0:
            inside = valid & (low[:, :-offset] <= later) & (later <= high[:, :-offset])
            points.append(CurvePoint(offset, int(np.count_nonzero(inside)) / n, n))
        for reason, count in (
            ("base_interval_unusable", base.size - n_base_ok),
            ("later_value_missing", n_base_ok - n),
            ("no_valid_pairs", int(n == 0)),
        ):
            if exclusions is not None and count > 0:
                exclusions.append(ExclusionRecord(
                    "curve", reason, count, country=country, scheme=scheme, offset=offset
                ))
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
    grid: CellGrid, *, journal_id: str, country: str, scheme: Scheme
) -> list[SeriesPoint]:
    """Ordered-by-year series for one journal/country/scheme, for plotting.

    Reported lower bounds are clamped at zero (the indicator is
    nonnegative); the unclamped bounds stay available on the cells.
    """
    t, j = grid.targets.get((country, scheme)), grid.journals.get(journal_id)
    if t is None or j is None:
        return [SeriesPoint(year, None, None, None, "missing") for year in grid.years]
    row = (a[t, j].tolist() for a in (
        grid.present, grid.ok, grid.value, grid.ci_low_reported, grid.ci_high, grid.status
    ))
    return [
        SeriesPoint(year, value, low if ok else None, high if ok else None,
                    grid.STATUSES[code].value)
        if present else SeriesPoint(year, None, None, None, "missing")
        for year, present, ok, value, low, high, code in zip(grid.years, *row)
    ]


def whole_journal_estimate(cohort: Cohort, settings: CiSettings = CiSettings()) -> MnlcsEstimate:
    """Indicator of the whole cohort against itself; identically 1 by design."""
    field_stats = log_stats_from_logs(cohort.log_citations)
    if field_stats.mean <= 0.0:
        raise DegenerateField("field mean of ln(1+c) is zero")
    return estimate(field_stats, field_stats, settings)
