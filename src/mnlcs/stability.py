"""Temporal stability of indicator values against earlier confidence intervals.

For every (journal, year, country, scheme) cell the indicator and its
interval are computed; then, for each year offset k >= 1, the later year's
point value is tested for membership in the earlier year's interval, never
interval against interval. Same-journal pairs only. Membership is closed at
the endpoints. Cells whose base interval is unbounded are excluded from
coverage, since an unbounded interval would trivially contain everything;
all exclusions are tallied. The offset-0 point of a curve comes from the
split-half baseline and is flagged as simulated.

``compute_cells`` returns a ``CellGrid``, one [target, journal, year]
array per cell field, filled from one interval-kernel call on the columns
of every cell. The groups' means and SEs come a block of cohorts at a time
(bootstrap.blocks, one-article cohorts included), from one
``indicator.segment_moments`` call, one segment per group. The pairs at
offset k are then the year columns ``[:, :-k]`` against ``[:, k:]``, a
series is a row, and cells.csv is sorted and formatted a column at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .bootstrap import blocks, lag0_batch
from .counting import membership
from .errors import ValidationError
from .fieller import DEFAULT_SETTINGS, OK, STATUS_TEXT, CiSettings, estimate, interval_columns
from .indicator import log_stats_from_logs, segment_moments
from .model import Cohort, MnlcsEstimate, Scheme


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


class ExclusionRecord(NamedTuple):
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
    cohorts: Sequence[Cohort],
    countries: Sequence[str],
    schemes: Sequence[Scheme],
    settings: CiSettings = DEFAULT_SETTINGS,
    exclusions: list[ExclusionRecord] | None = None,
    years: range | None = None,
) -> CellGrid:
    """Estimate every (journal, year, country, scheme) cell with any group data.

    Cells exist whenever the group is non-empty and the field mean is
    positive; their status records whether an interval was possible. Cohorts
    with a zero field mean and empty group selections are skipped and
    tallied. Each block of cohorts of at most ``bootstrap.ARTICLES``
    articles (a larger cohort alone) takes one membership matrix, the field
    and then the targets in country-major, scheme-minor order; one
    ``segment_moments`` call gives every group's mean and SE, and every cell
    gets its interval from one ``interval_columns`` call on the resulting
    columns. ``years`` (None is the cohorts' span) is the grid's year axis. Two cohorts with one
    (journal, year), a repeated (country, scheme) target or a cohort year
    outside ``years`` raise ValidationError.
    """
    exclusions = [] if exclusions is None else exclusions
    targets = [(country, scheme) for country in countries for scheme in schemes]
    if len(set(targets)) < len(targets):
        raise ValidationError(f"duplicate (country, scheme) targets: {targets}")
    if len({(c.journal_id, c.year) for c in cohorts}) < len(cohorts):
        raise ValidationError("two cohorts share one (journal, year)")
    cohort_years = [c.year for c in cohorts]
    if years is None:
        years = range(min(cohort_years), max(cohort_years) + 1) if cohorts else range(0)
    if years.step != 1:
        raise ValidationError(f"years must step by 1, got {years!r}")
    if any(year not in years for year in cohort_years):
        raise ValidationError(f"a cohort year lies outside {years!r}")

    journals = sorted({c.journal_id for c in cohorts})
    code = {j: i for i, j in enumerate(journals)}
    # per row (the field, then each target) and cohort: n, mean and se of the
    # group's ln(1+c); n is 0 for an empty group
    n, mean, se = np.zeros((3, len(targets) + 1, len(cohorts)))
    for pairs in blocks(cohorts):
        index, block = zip(*pairs)
        # [targets + 1, articles]: row 0 is the field, the cohorts side by side
        member = np.vstack([
            np.ones((1, sum(c.size for c in block)), dtype=bool),
            np.hstack([membership(c, targets) for c in block]),
        ])
        edges = np.cumsum([0] + [c.size for c in block[:-1]])
        sizes = np.add.reduceat(member, edges, axis=1, dtype=np.intp)  # [targets + 1, cohorts]
        # the member logs row by row hold each (row, cohort) group in turn,
        # so the non-empty groups, row-major, are their segments
        row, at = np.nonzero(sizes)
        counts = sizes[row, at]
        logs = np.broadcast_to(np.concatenate([c.log_citations for c in block]), member.shape)[member]
        cell = row, np.array(index)[at]
        n[cell], (mean[cell], se[cell]) = counts, segment_moments(logs, counts)

    degenerate = mean[0] <= 0.0
    for cohort, skip, empty in zip(cohorts, degenerate.tolist(), (n[1:] == 0).T.tolist()):
        if skip:
            exclusions.append(ExclusionRecord(
                "cells", "degenerate_field", len(targets), cohort.journal_id, cohort.year
            ))
        else:
            exclusions.extend(
                ExclusionRecord("cells", "empty_group", 1, cohort.journal_id, cohort.year, *key)
                for key, missing in zip(targets, empty) if missing
            )
    # the cells in cohort-major, target-minor order
    at, target = np.nonzero((n[1:] > 0).T & ~degenerate[:, None])
    position = np.array(
        [code[c.journal_id] * len(years) + c.year - years.start for c in cohorts], dtype=np.intp
    )
    # flat [target, journal, year] index of each cell
    flat = target * (len(journals) * len(years)) + position[at]
    n_group, n_field = n[target + 1, at].astype(np.intp), n[0, at].astype(np.intp)
    return CellGrid(
        years, journals, targets, flat, n_group, n_field,
        *interval_columns(n_group, mean[target + 1, at], se[target + 1, at],
                          n_field, mean[0, at], se[0, at], settings),
    )


class CellGrid:
    """The cells of a run as [target, journal, year] arrays.

    ``journals`` (sorted) and ``targets``, (country, scheme) pairs, map to
    their index; ``years`` is the year axis. The arrays: ``n_group`` and
    ``n_field``, ``value``, the raw bounds ``ci_low``/``ci_high``, ``h``
    and ``se`` (NaN where the cell's estimate reports None or there is no
    cell), ``ci_low_reported`` (clamped at zero), ``status`` (an index into
    ``fieller.STATUS_TEXT``, -1 where there is no cell) and the masks
    ``present`` and ``ok`` (bounded). ``has_cells`` [target, journal] marks
    the journals with any cell for the target.

    Built from one entry per cell: its ``flat`` index into the
    [target, journal, year] shape, distinct across cells, and its columns.
    """

    def __init__(self, years: range, journals: Sequence[str],
                 targets: Sequence[tuple[str, Scheme]], flat: np.ndarray,
                 n_group, n_field, value, ci_low, ci_high, h, se, status):
        self.years = years
        self.journals = {j: i for i, j in enumerate(journals)}
        self.targets = {t: i for i, t in enumerate(targets)}
        shape = (len(self.targets), len(self.journals), len(years))

        def scatter(column, fill):
            out = np.full(shape, fill, dtype=column.dtype)
            out.reshape(-1)[flat] = column
            return out

        self.n_group, self.n_field = scatter(n_group, 0), scatter(n_field, 0)
        self.value, self.ci_low, self.ci_high, self.h, self.se = (
            scatter(column, np.nan) for column in (value, ci_low, ci_high, h, se)
        )
        self.status = scatter(status, -1)
        self.present = self.status >= 0
        self.ok = self.status == OK
        self.has_cells = self.present.any(axis=2)
        # max(0.0, low) of the scalar report, -0.0 and NaN included
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
    no valid pairs emit no point; offsets past the year span attempt no
    pairs, so they are skipped without an exclusion row.
    """
    t = grid.targets.get((country, scheme))
    # [journal, year] rows of the journals taking part; none if no cell names the target
    ok, present, value, low, high = (
        np.empty((0, len(grid.years)), a.dtype) if t is None else a[t, grid.has_cells[t]]
        for a in (grid.ok, grid.present, grid.value, grid.ci_low, grid.ci_high)
    )
    points = [] if lag0_point is None else [lag0_point]
    for offset in range(1, min(max_offset, len(grid.years) - 1) + 1):
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
    coverages, added in cohort order; n_comparisons totals the valid
    replicates behind it. Journal-years with no valid replicates, one-article
    ones among them, are tallied and skipped; a target nothing contributes
    to maps to None, as every target does at 0 replicates. All targets share
    each cohort's splits, so one lag0_batch call over the cohorts serves
    every country and scheme.
    """
    if not replicates or not cohorts:
        return dict.fromkeys(targets)
    n_valid, n_inside = lag0_batch(cohorts, targets, replicates, rng_seed, settings)
    if exclusions is not None:
        exclusions.extend(
            ExclusionRecord("lag0", "replicates_excluded", replicates - valid, c.journal_id, c.year,
                            *target, offset=0)
            for c, valids in zip(cohorts, n_valid.tolist())
            for target, valid in zip(targets, valids) if valid < replicates
        )
    used = n_valid > 0
    with np.errstate(invalid="ignore"):  # 0 / 0 where nothing is valid
        # a left fold in cohort order: a sum down one target's column would add pairwise
        means = np.where(used, n_inside / n_valid, 0.0).cumsum(axis=0)[-1] / used.sum(axis=0)
    return {
        target: CurvePoint(0, mean, total, simulated=True) if total else None
        for target, mean, total in zip(targets, means.tolist(), n_valid.sum(axis=0).tolist())
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
        return [SeriesPoint(year, None, None, None, STATUS_TEXT[-1]) for year in grid.years]
    row = (a[t, j].tolist() for a in (
        grid.present, grid.ok, grid.value, grid.ci_low_reported, grid.ci_high, grid.status
    ))
    return [
        SeriesPoint(year, value if present else None, low if ok else None, high if ok else None,
                    STATUS_TEXT[code])
        for year, present, ok, value, low, high, code in zip(grid.years, *row)
    ]


def whole_journal_estimate(cohort: Cohort, settings: CiSettings = DEFAULT_SETTINGS) -> MnlcsEstimate:
    """Indicator of the whole cohort against itself; identically 1 by design."""
    field_stats = log_stats_from_logs(cohort.log_citations)
    return estimate(field_stats, field_stats, settings)
