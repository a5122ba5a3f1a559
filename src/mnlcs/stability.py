"""Temporal stability of indicator values against earlier confidence intervals.

For every (journal, year, country, scheme) cell the indicator and its
interval are computed; then, for each year offset k >= 1, the later year's
point value is tested for membership in the earlier year's interval, never
interval against interval. Same-journal pairs only. Membership is closed at
the endpoints. Cells whose base interval is unbounded are excluded from
coverage, since an unbounded interval would trivially contain everything;
all exclusions are tallied. The offset-0 point of a curve comes from the
split-half baseline and is flagged as simulated.

``compute_cells`` returns a ``CellTable``, one array per cell field, so the
intervals come from one kernel call and cells.csv is sorted and formatted a
column at a time. Curves and series read a ``CellGrid`` scattered once from
it: one [target, journal, year] array per field, so the pairs at offset k
are the year columns ``[:, :-k]`` against ``[:, k:]`` and a series is a row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .bootstrap import lag0_batch
from .counting import membership
from .errors import DegenerateField, ValidationError
from .fieller import DEFAULT_SETTINGS, OK, STATUSES, CiSettings, estimate, interval_columns, row_estimate
from .indicator import log_moments, log_stats_from_logs
from .model import Cohort, MnlcsEstimate, Scheme


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


def compute_cells(
    cohorts: Iterable[Cohort],
    countries: Sequence[str],
    schemes: Sequence[Scheme],
    settings: CiSettings = DEFAULT_SETTINGS,
    exclusions: list[ExclusionRecord] | None = None,
) -> CellTable:
    """Estimate every (journal, year, country, scheme) cell with any group data.

    Cells exist whenever the group is non-empty and the field mean is
    positive; their status records whether an interval was possible. Cohorts
    with a zero field mean and empty group selections are skipped and
    tallied. Each cohort's groups come from one membership matrix, in
    country-major, scheme-minor order; each group's mean and SE are
    compensated sums, and every cell gets its interval from one
    ``interval_columns`` call on the resulting columns.
    """
    exclusions = [] if exclusions is None else exclusions
    targets = [(country, scheme) for country in countries for scheme in schemes]
    # per cohort with cells: journal, year, cell count, field (n, mean, se)
    journal, year, counts, fields = [], [], [], []
    target, groups = [], []  # per cell: target index, group (n, mean, se)
    for cohort in cohorts:
        logs = cohort.log_citations
        field = log_moments(logs)
        if field[1] <= 0.0:  # the field mean
            exclusions.append(ExclusionRecord(
                "cells", "degenerate_field", len(targets), cohort.journal_id, cohort.year
            ))
            continue
        members = membership(cohort, targets)
        nonempty = members.any(axis=1).tolist()
        exclusions.extend(
            ExclusionRecord("cells", "empty_group", 1, cohort.journal_id, cohort.year, *key)
            for key, any_member in zip(targets, nonempty) if not any_member
        )
        cells = [k for k, any_member in enumerate(nonempty) if any_member]
        if cells:
            journal.append(cohort.journal_id)
            year.append(cohort.year)
            counts.append(len(cells))
            fields.append(field)
            target += cells
            groups += [log_moments(logs[members[k]]) for k in cells]

    journals = tuple(sorted(set(journal)))
    code = {j: i for i, j in enumerate(journals)}
    n_group, group_mean, group_se = np.array(groups, dtype=np.float64).reshape(-1, 3).T
    n_field, field_mean, field_se = np.repeat(
        np.array(fields, dtype=np.float64).reshape(-1, 3), counts, axis=0
    ).T
    n_group, n_field = n_group.astype(np.intp), n_field.astype(np.intp)
    return CellTable(
        journals,
        tuple(targets),
        np.repeat(np.array([code[j] for j in journal], dtype=np.intp), counts),
        np.repeat(np.array(year, dtype=np.intp), counts),
        np.array(target, dtype=np.intp),
        n_group,
        n_field,
        *interval_columns(n_group, group_mean, group_se, n_field, field_mean, field_se, settings),
    )


@dataclass(frozen=True, eq=False)
class CellTable:
    """Every (journal, year, country, scheme) cell of a run as parallel arrays.

    One entry per cell, in compute order: ``journal`` indexes ``journals``
    (sorted journal ids), ``target`` indexes ``targets`` ((country, scheme)
    pairs), and ``year``, ``n_group`` and ``n_field`` are integers. The
    float columns ``value``, the raw bounds ``ci_low``/``ci_high``, ``h``
    and ``se`` hold NaN where the cell's estimate reports None; ``status``
    is an index into ``fieller.STATUSES``. ``table[i]`` and iteration build
    ``CellResult`` rows on access; no per-cell object is kept.
    """

    journals: tuple[str, ...]
    targets: tuple[tuple[str, Scheme], ...]
    journal: np.ndarray
    year: np.ndarray
    target: np.ndarray
    n_group: np.ndarray
    n_field: np.ndarray
    value: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    h: np.ndarray
    se: np.ndarray
    status: np.ndarray

    @classmethod
    def from_results(cls, cells: Iterable[CellResult]) -> CellTable:
        """The table of hand-built cells, in their order."""
        cells = list(cells)
        journals = tuple(sorted({c.journal_id for c in cells}))
        targets = tuple(dict.fromkeys((c.country, c.scheme) for c in cells))
        journal, target = ({key: i for i, key in enumerate(keys)} for keys in (journals, targets))
        rows = [
            (journal[c.journal_id], c.year, target[(c.country, c.scheme)], e.n_group, e.n_field,
             e.value, e.ci_low, e.ci_high, e.h, e.se_mnlcs, STATUSES.index(e.status))
            for c, e in zip(cells, [c.estimate for c in cells])
        ]
        dtypes = (np.intp,) * 5 + (np.float64,) * 5 + (np.int8,)  # None becomes NaN
        columns = zip(*rows) if rows else [()] * len(dtypes)
        return cls(journals, targets, *map(np.array, columns, dtypes))

    def __len__(self) -> int:
        return len(self.status)

    def __getitem__(self, i: int) -> CellResult:
        i = range(len(self))[i]  # IndexError outside the table
        return next(self._rows(slice(i, i + 1)))

    def __iter__(self) -> Iterator[CellResult]:
        return self._rows(slice(None))

    def _rows(self, part: slice) -> Iterator[CellResult]:
        columns = (getattr(self, name)[part].tolist() for name in (
            "journal", "year", "target", "value", "ci_low", "ci_high", "h", "se",
            "n_group", "n_field", "status",
        ))
        for j, year, t, *estimate in zip(*columns):
            yield CellResult(self.journals[j], year, *self.targets[t], row_estimate(*estimate))


class CellGrid:
    """The cells of a run as [target, journal, year] arrays, for curves and series.

    ``journals`` (sorted) and ``targets``, (country, scheme) pairs, map to
    their index. The arrays: ``value``, the raw bounds ``ci_low``/``ci_high``
    (NaN where absent), ``ci_low_reported`` (clamped at zero), ``status`` (an
    index into ``fieller.STATUSES``) and the masks ``present`` and ``ok`` (bounded).
    ``has_cells`` [target, journal] marks the journals with any cell for the
    target, even outside ``years``. Of two cells with one key the later wins.
    """

    def __init__(self, table: CellTable, years: range):
        if years.step != 1:
            raise ValidationError(f"years must step by 1, got {years!r}")
        self.years = years
        self.journals = {j: i for i, j in enumerate(table.journals)}
        self.targets = {t: i for i, t in enumerate(dict.fromkeys(table.targets))}
        shape = (len(self.targets), len(self.journals), len(years))
        t = np.array([self.targets[t] for t in table.targets], dtype=np.intp)[table.target]
        j, y = table.journal, table.year - years.start
        self.has_cells = np.zeros(shape[:2], dtype=bool)
        self.has_cells[t, j] = True

        # scatter the cells in ``years``, keeping the last of each key
        kept = np.flatnonzero((y >= 0) & (y < len(years)))[::-1]
        flat, first = np.unique(np.ravel_multi_index((t[kept], j[kept], y[kept]), shape),
                                return_index=True)
        kept = kept[first]

        def scatter(column, fill):
            out = np.full(shape, fill, dtype=column.dtype)
            out.reshape(-1)[flat] = column[kept]
            return out

        self.value = scatter(table.value, np.nan)
        self.ci_low = scatter(table.ci_low, np.nan)
        self.ci_high = scatter(table.ci_high, np.nan)
        self.status = scatter(table.status, -1)
        self.present = self.status >= 0
        self.ok = self.status == OK
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
    settings: CiSettings = DEFAULT_SETTINGS,
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
                exclusions.append(ExclusionRecord(
                    "lag0", "replicates_excluded", result.n_excluded, cohort.journal_id,
                    cohort.year, *target, offset=0,
                ))
            if result.n_valid == 0:
                continue
            fractions[target].append(result.fraction)
            totals[target] += result.n_valid
    return {
        target: CurvePoint(0, sum(fracs) / len(fracs), totals[target], simulated=True)
        if fracs else None
        for target, fracs in fractions.items()
    }


class SeriesPoint(NamedTuple):
    """One year of a per-journal indicator time series; missing or CI-less
    years appear with the gap marked rather than silently dropped. A named
    tuple: a run builds one per (journal, target, year), and a tuple costs a
    fraction of a frozen dataclass to build."""

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
                    STATUSES[code].value)
        if present else SeriesPoint(year, None, None, None, "missing")
        for year, present, ok, value, low, high, code in zip(grid.years, *row)
    ]


def whole_journal_estimate(cohort: Cohort, settings: CiSettings = DEFAULT_SETTINGS) -> MnlcsEstimate:
    """Indicator of the whole cohort against itself; identically 1 by design."""
    field_stats = log_stats_from_logs(cohort.log_citations)
    if field_stats.mean <= 0.0:
        raise DegenerateField("field mean of ln(1+c) is zero")
    return estimate(field_stats, field_stats, settings)
