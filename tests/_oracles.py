"""Independent numerical oracles for the test suite.

These deliberately avoid the code paths they are used to check: the t
quantile comes from quadrature of the density plus bisection (the library
uses scipy's inverse CDF), the discretised-lognormal expectation comes
from direct series summation against the normal CDF, and split-half
decisions and cells are rebuilt one at a time through a scalar Fieller
interval written with math.sqrt (only the per-bin counts of each split are
drawn by the engine; the bins and the records each count picks are rebuilt
record by record), group membership and cells are decided record by record,
not through the library's membership matrix, CSV ingest and writing go
through one CitationRecord per row, not through columns, coverage curves
and series look up one cell per (journal, year) pair in a dict, not in the
library's cell grid, cells.csv is sorted and written one ``CellRow`` (this
module's own cell record) at a time, not from the grid's arrays,
series.csv, exclusions.csv, curves.csv and curves_<scheme>.csv are
written a row at a time through csv.writer and ``fmt``, and manifest.json
through json and hashlib, not through the library's writers, a cohort's
canonical sets are ranked from its used sets alone, not looked up in the
cached order of its whole sets tuple, and synthetic cohorts are drawn
one group at a time, each from its own ``stream`` (numpy's SeedSequence),
not from one batch of streams. ``oracle_bundle`` composes these stages into
the whole bundle of a run.
"""

import csv
import functools
import hashlib
import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import integrate
from scipy.stats import norm

from mnlcs.bootstrap import half_a_counts
from mnlcs.dataio import (
    CSV_HEADER,
    IngestReport,
    fmt,
)
from mnlcs.errors import DegenerateField, IngestError, ValidationError
from mnlcs.experiment import load_cohorts, resolve_countries
from mnlcs.fieller import STATUSES, t_quantile
from mnlcs.indicator import log_stats_from_logs
from mnlcs.model import (
    CitationRecord,
    Cohort,
    EstimateStatus,
    MnlcsEstimate,
    Scheme,
    validate_record,
)
from mnlcs.rngtools import stream
from mnlcs.stability import (
    CellGrid,
    CoverageCurve,
    CurvePoint,
    ExclusionRecord,
    SeriesPoint,
)
from mnlcs.synth import ScenarioSpec, capability_path, sample_citations


@dataclass(frozen=True)
class CellRow:
    """One (journal, year, country, scheme) cell and its estimate."""

    journal_id: str
    year: int
    country: str
    scheme: Scheme
    estimate: MnlcsEstimate


def cell_key(cell: CellRow) -> tuple:
    """The (journal, year, country, scheme) order of cells.csv."""
    return cell.journal_id, cell.year, cell.country, cell.scheme.value


def grid_of(cells, years, journals=()) -> CellGrid:
    """The CellGrid of CellRows with distinct keys inside ``years``; the
    ``journals`` without cells join its journal axis."""
    journal_ids = sorted({c.journal_id for c in cells} | set(journals))
    targets = list(dict.fromkeys((c.country, c.scheme) for c in cells))
    flat = [
        (targets.index((c.country, c.scheme)) * len(journal_ids) + journal_ids.index(c.journal_id))
        * len(years) + years.index(c.year)
        for c in cells
    ]
    estimates = [c.estimate for c in cells]
    columns = [
        np.array([getattr(e, name) for e in estimates], dtype=dtype)  # None becomes NaN
        for name, dtype in (("n_group", np.intp), ("n_field", np.intp), ("value", float),
                            ("ci_low", float), ("ci_high", float), ("h", float),
                            ("se_mnlcs", float))
    ]
    status = np.array([STATUSES.index(e.status) for e in estimates], dtype=np.int8)
    return CellGrid(years, journal_ids, targets, np.array(flat, dtype=np.intp), *columns, status)


def grid_cells(grid: CellGrid) -> list[CellRow]:
    """The grid's cells as CellRows, one array element at a time, in
    (target, journal, year) order."""
    rows = []
    for (country, scheme), t in grid.targets.items():
        for journal_id, j in grid.journals.items():
            for y, year in enumerate(grid.years):
                code = int(grid.status[t, j, y])
                if code < 0:
                    continue
                ok = STATUSES[code] is EstimateStatus.OK
                value, low, high, h, se = (
                    float(a[t, j, y]) for a in (grid.value, grid.ci_low, grid.ci_high, grid.h, grid.se)
                )
                rows.append(CellRow(journal_id, year, country, scheme, MnlcsEstimate(
                    value, low if ok else None, high if ok else None,
                    None if math.isnan(h) else h, se if ok else None,
                    int(grid.n_group[t, j, y]), int(grid.n_field[t, j, y]), STATUSES[code],
                )))
    return rows


def t_pdf(x: float, df: float) -> float:
    log_norm = (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )
    return math.exp(log_norm - ((df + 1.0) / 2.0) * math.log1p(x * x / df))


def t_upper_tail(x: float, df: float) -> float:
    val, _err = integrate.quad(t_pdf, x, math.inf, args=(df,), limit=400)
    return val


def t_upper_quantile(df: float, alpha: float) -> float:
    lo, hi = 0.0, 1.0
    while t_upper_tail(hi, df) > alpha:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_upper_tail(mid, df) > alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def expected_log1p_count(mu: float, sigma: float = 1.0, kmax: int = 2_000_000) -> float:
    """E[ln(1+c)] for c = max(0, round(e^y) - 1), y ~ Normal(mu, sigma^2)."""
    ks = np.arange(2, kmax)
    upper = (np.log(ks + 0.5) - mu) / sigma
    lower = (np.log(ks - 0.5) - mu) / sigma
    probs = norm.cdf(upper) - norm.cdf(lower)
    return float(np.sum(np.log(ks) * probs))


def prob_zero_count(mu: float, sigma: float) -> float:
    """P(c = 0) under the same discretisation: round(e^y) <= 1."""
    return float(norm.cdf((math.log(1.5) - mu) / sigma))


def spearman(xs, ys) -> float:
    """Plain rank correlation, average ranks for ties."""

    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        r = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            avg = (i + j) / 2.0 + 1.0
            for k in range(i, j + 1):
                r[order[k]] = avg
            i = j + 1
        return r

    rx, ry = ranks(list(xs)), ranks(list(ys))
    n = len(rx)
    mx, my = sum(rx) / n, sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = math.sqrt(sum((a - mx) ** 2 for a in rx))
    vy = math.sqrt(sum((b - my) ** 2 for b in ry))
    return cov / (vx * vy)


def _relative_se_sq(se, mean) -> float:
    # (SE/mean)^2 with the zero-variance limit pinned to 0; mean == 0 forces
    # SE == 0 (all-zero sample), so the 0/0 case resolves to 0 as well
    if se is None or se == 0.0:
        return 0.0
    r = se / mean
    return r * r


def fieller_oracle(value, group, field, t, form="standard") -> MnlcsEstimate:
    """The Fieller interval for one (group, field) pair in scalar Python.

    Squares are written r * r: that is correctly rounded, as numpy's ** 2
    is, while Python's float ** 2 calls libm pow, which can be one ulp off.
    """
    if field.mean <= 0.0:
        raise DegenerateField("field mean of ln(1+c) is zero")

    def flagged(status, h=None):
        return MnlcsEstimate(value, None, None, h, None, group.n, field.n, status)

    if group.n < 2 or field.n < 2:
        return flagged(EstimateStatus.INSUFFICIENT_DATA)
    if form == "standard":
        h = t * t * _relative_se_sq(field.se, field.mean)
    elif group.mean == 0.0:
        h = math.inf
    else:
        r = field.se / group.mean
        h = t * (r * r)
    if h >= 1.0:
        return flagged(EstimateStatus.UNBOUNDED_FIELLER, h if math.isfinite(h) else None)
    centre = value / (1.0 - h)
    se = centre * math.sqrt(
        (1.0 - h) * _relative_se_sq(group.se, group.mean) + _relative_se_sq(field.se, field.mean)
    )
    return MnlcsEstimate(
        value, centre - t * se, centre + t * se, h, se, group.n, field.n, EstimateStatus.OK
    )


@functools.cache
def oracle_t(df: int, alpha: float) -> float:
    """t_quantile on one df; the oracles ask for the same few df again and again."""
    return t_quantile(df, alpha)


def estimate_oracle(group, field, settings) -> MnlcsEstimate:
    """fieller.estimate through fieller_oracle, one pair at a time."""
    if field.mean <= 0.0:
        raise DegenerateField("field mean of ln(1+c) is zero")
    value = group.mean / field.mean
    if group.n < settings.min_group_n or field.n < 2:
        return MnlcsEstimate(
            value, None, None, None, None, group.n, field.n, EstimateStatus.INSUFFICIENT_DATA
        )
    t = oracle_t(group.n + field.n - 2, settings.alpha)
    return fieller_oracle(value, group, field, t, form=settings.form)


def record_in_group(record: CitationRecord, country: str, scheme: Scheme) -> bool:
    if scheme is Scheme.INCLUSIVE:
        return country in record.countries
    return record.countries == frozenset((country,))


def cells_oracle(cohorts, countries, schemes, settings):
    """(cells, exclusions) of compute_cells, one cell at a time: members by
    record_in_group, then log_stats_from_logs and estimate_oracle()."""
    cells, exclusions = [], []
    for c in cohorts:
        field = log_stats_from_logs(c.log_citations)
        if field.mean <= 0.0:
            exclusions.append(ExclusionRecord(
                "cells", "degenerate_field", len(countries) * len(schemes), c.journal_id, c.year
            ))
            continue
        for country in countries:
            for scheme in schemes:
                members = [i for i, r in enumerate(c.records) if record_in_group(r, country, scheme)]
                if not members:
                    exclusions.append(ExclusionRecord(
                        "cells", "empty_group", 1, c.journal_id, c.year, country, scheme
                    ))
                    continue
                group = log_stats_from_logs(c.log_citations[members])
                est = estimate_oracle(group, field, settings)
                cells.append(CellRow(c.journal_id, c.year, country, scheme, est))
    return cells, exclusions


def bin_members(cohort: Cohort) -> list[list[int]]:
    """Record indices of each split-half bin, rebuilt record by record.

    A bin holds the records with one author-country set and one citation
    count; bins are sorted by (sorted countries, citations) and each lists
    its records in input order.
    """
    keys = [(tuple(sorted(r.countries)), r.citations) for r in cohort.records]
    members = {key: [] for key in sorted(set(keys))}
    for i, key in enumerate(keys):
        members[key].append(i)
    return list(members.values())


def split_masks(cohort: Cohort, replicates: int, rng_seed: int):
    """Yield half A of each replicate as a bool mask over the records: the
    first D_j records of bin j, where D is the engine's count row."""
    members = bin_members(cohort)
    sizes = np.array([len(m) for m in members], dtype=np.int64)
    for rows in half_a_counts(cohort, sizes, replicates, rng_seed):
        for row in rows:
            in_a = np.zeros(cohort.size, dtype=bool)
            for m, d in zip(members, row):
                in_a[m[:d]] = True
            yield in_a


def split_half(cohort: Cohort, rng_seed: int) -> tuple[Cohort, Cohort]:
    """Replicate 0's split of ``cohort`` as two cohorts, records in input order."""
    in_a = next(split_masks(cohort, 1, rng_seed))
    recs = cohort.records
    return (
        Cohort(cohort.journal_id, cohort.year, tuple(r for r, a in zip(recs, in_a) if a)),
        Cohort(cohort.journal_id, cohort.year, tuple(r for r, a in zip(recs, in_a) if not a)),
    )


def scalar_decisions(cohort, targets, replicates, rng_seed, settings):
    """Per-replicate (valid, inside) bool arrays [replicates, targets] of the
    split-half test, one replicate and target at a time through estimate_oracle()."""
    logs = cohort.log_citations
    member = np.array(
        [[record_in_group(r, country, scheme) for r in cohort.records] for country, scheme in targets]
    )
    valid = np.zeros((replicates, len(targets)), dtype=bool)
    inside = np.zeros_like(valid)
    for rep, in_a in enumerate(split_masks(cohort, replicates, rng_seed)):
        field_a = log_stats_from_logs(logs[in_a])
        field_b = log_stats_from_logs(logs[~in_a])
        for k in range(len(targets)):
            ga = logs[in_a & member[k]]
            gb = logs[~in_a & member[k]]
            if field_a.mean <= 0 or field_b.mean <= 0:
                continue
            if len(ga) < settings.min_group_n or len(gb) == 0:
                continue
            est = estimate_oracle(log_stats_from_logs(ga), field_a, settings)
            if est.status is not EstimateStatus.OK:
                continue
            valid[rep, k] = True
            inside[rep, k] = est.contains(log_stats_from_logs(gb).mean / field_b.mean)
    return valid, inside


def scalar_lag0_points(cohorts, targets, replicates, rng_seed, settings):
    """(points, exclusions) of stability.lag0_curve_points from scalar_decisions;
    a one-article cohort cannot be halved, so all its replicates are excluded.
    Fractions are averaged by a left fold in cohort order, whatever ``sum`` does."""
    fractions, totals, exclusions = {t: [] for t in targets}, dict.fromkeys(targets, 0), []
    for c in cohorts:
        if c.size < 2:
            valid = inside = np.zeros((replicates, len(targets)), dtype=bool)
        else:
            valid, inside = scalar_decisions(c, targets, replicates, rng_seed, settings)
        for target, n_valid, n_inside in zip(targets, valid.sum(axis=0), inside.sum(axis=0)):
            if n_valid < replicates:
                exclusions.append(ExclusionRecord(
                    "lag0", "replicates_excluded", replicates - int(n_valid), c.journal_id,
                    c.year, *target, offset=0,
                ))
            if n_valid:
                fractions[target].append(int(n_inside) / int(n_valid))
                totals[target] += int(n_valid)
    points = {
        target: CurvePoint(0, functools.reduce(operator.add, fracs) / len(fracs), totals[target],
                           simulated=True)
        if fracs else None
        for target, fracs in fractions.items()
    }
    return points, exclusions


def record_to_row(record: CitationRecord) -> list[str]:
    return [
        record.journal_id,
        str(record.year),
        str(record.citations),
        ";".join(sorted(record.countries)),
    ]


def write_records_csv_oracle(path, cohorts) -> int:
    """dataio.write_records_csv through csv.writer, one record a row."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for cohort in cohorts:
            writer.writerows(record_to_row(record) for record in cohort.records)
            n += cohort.size
    return n


def canonical_sets_oracle(codes, sets):
    """model._canonical_codes from the used sets alone: drop unused sets,
    merge equal ones, sort the rest by their sorted country tuples."""
    codes = np.asarray(codes, dtype=np.intp)
    used = np.flatnonzero(np.bincount(codes, minlength=len(sets)))
    keys = [tuple(sorted(sets[i])) for i in used]
    ranked = sorted(set(keys))
    rank = {key: r for r, key in enumerate(ranked)}
    remap = np.zeros(len(sets), dtype=np.intp)
    remap[used] = [rank[key] for key in keys]
    return remap[codes], tuple(frozenset(key) for key in ranked)


def group_into_cohorts(records) -> list[Cohort]:
    """Group records into cohorts sorted by (journal, year)."""
    buckets: dict[tuple[str, int], list[CitationRecord]] = {}
    for rec in records:
        buckets.setdefault((rec.journal_id, rec.year), []).append(rec)
    return [
        Cohort(journal_id, year, tuple(buckets[(journal_id, year)]))
        for journal_id, year in sorted(buckets)
    ]


def ingest_oracle(path, *, journals=None, year_min=None, year_max=None, max_bad_rows=0):
    """dataio.ingest row by row: validate_record per row, then filters, then
    group_into_cohorts."""
    journal_filter = set(journals) if journals is not None else None
    report = IngestReport()
    records = []
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file, expected header {CSV_HEADER}") from None
        if [h.strip() for h in header] != CSV_HEADER:
            raise IngestError(f"{path}: bad header {header!r}, expected {CSV_HEADER}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            report.n_rows += 1
            if len(row) != len(CSV_HEADER):
                report.n_bad += 1
                report.row_errors.append((line_no, f"expected {len(CSV_HEADER)} fields, got {len(row)}"))
                continue
            try:
                record = validate_record(dict(zip(CSV_HEADER, row)))
            except ValidationError as exc:
                report.n_bad += 1
                report.row_errors.append((line_no, str(exc)))
                continue
            if (
                (journal_filter is not None and record.journal_id not in journal_filter)
                or (year_min is not None and record.year < year_min)
                or (year_max is not None and record.year > year_max)
            ):
                report.n_filtered += 1
                continue
            records.append(record)
            report.n_kept += 1
    if report.n_bad > max_bad_rows:
        detail = "; ".join(f"line {ln}: {msg}" for ln, msg in report.row_errors[:10])
        raise IngestError(
            f"{path}: {report.n_bad} malformed rows exceed tolerance {max_bad_rows} ({detail})",
            row_errors=report.row_errors,
        )
    return group_into_cohorts(records), report


def generate_oracle(spec: ScenarioSpec) -> list[Cohort]:
    """synth.generate one group at a time: a stream and a sample_citations
    call per (journal, year, group), then the unlabelled rest of the field,
    and every article a CitationRecord."""
    groups = [(g, int(g.share * spec.field_size_per_year)) for g in spec.groups]
    groups = [(g, n) for g, n in groups if n > 0]
    n_rest = spec.field_size_per_year - sum(n for _, n in groups)
    cohorts = []
    for journal_id in spec.journal_ids:
        mu = {g.country: capability_path(spec, journal_id, g) for g, _ in groups}
        for year in spec.years:
            records = []
            for g, n in groups:
                rng = stream(spec.rng_seed, "citations", journal_id, year, g.country)
                n_collab = int(n * spec.collab_fraction + 0.5)
                for i, c in enumerate(sample_citations(mu[g.country][year], g.sigma, n, rng)):
                    countries = {g.country, spec.collab_partner} if i < n_collab else {g.country}
                    records.append(CitationRecord(journal_id, year, int(c), frozenset(countries)))
            if n_rest > 0:
                rng = stream(spec.rng_seed, "citations", journal_id, year, "__rest__")
                records += [
                    CitationRecord(journal_id, year, int(c), frozenset())
                    for c in sample_citations(spec.field_mu, spec.field_sigma, n_rest, rng)
                ]
            cohorts.append(Cohort(journal_id, year, tuple(records)))
    return cohorts


def enumerate_pairs(years: range, offset: int) -> list[tuple[int, int]]:
    """All (base_year, later_year) pairs in ``years`` separated by ``offset``."""
    if offset < 1:
        raise ValueError(f"offset must be >= 1, got {offset}")
    return [(y, y + offset) for y in years if (y + offset) in years]


def coverage_curve_oracle(cells, *, country, scheme, years, max_offset, lag0_point=None,
                          exclusions=None) -> CoverageCurve:
    """stability.coverage_curve one (journal, base year, later year) pair at a time."""
    index = {}
    journals = set()
    for cell in cells:
        if cell.country != country or cell.scheme != scheme:
            continue
        index[(cell.journal_id, cell.year)] = cell
        journals.add(cell.journal_id)

    def _exclude(offset, reason, count):
        if exclusions is not None and count > 0:
            exclusions.append(ExclusionRecord(
                stage="curve", reason=reason, count=count, country=country, scheme=scheme,
                offset=offset,
            ))

    points = [] if lag0_point is None else [lag0_point]
    # an offset past the year span has no pairs to attempt
    for offset in range(1, min(max_offset, len(years) - 1) + 1):
        inside = n = n_base_unusable = n_later_missing = 0
        pairs = enumerate_pairs(years, offset)
        for journal_id in sorted(journals):
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


def series_oracle(cells, *, journal_id, country, scheme, years) -> list[SeriesPoint]:
    """stability.series_report from a dict of the journal's cells by year."""
    index = {
        cell.year: cell
        for cell in cells
        if cell.journal_id == journal_id and cell.country == country and cell.scheme == scheme
    }
    points = []
    for year in years:
        cell = index.get(year)
        if cell is None:
            points.append(SeriesPoint(year, None, None, None, "missing"))
            continue
        est = cell.estimate
        points.append(SeriesPoint(year, est.value, est.ci_low_reported, est.ci_high, est.status.value))
    return points


def write_cells_csv_oracle(path, cells) -> int:
    """dataio.write_cells_csv from CellRows: sorted by key, one row per cell."""
    header = [
        "journal_id", "year", "country", "scheme", "n_group", "n_field",
        "value", "ci_low", "ci_high", "h", "se_mnlcs", "status",
    ]
    rows = sorted(cells, key=cell_key)
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for cell in rows:
            est = cell.estimate
            writer.writerow([
                cell.journal_id,
                cell.year,
                cell.country,
                cell.scheme.value,
                est.n_group,
                est.n_field,
                fmt(est.value),
                fmt(est.ci_low_reported),
                fmt(est.ci_high),
                fmt(est.h),
                fmt(est.se_mnlcs),
                est.status.value,
            ])
    return len(rows)


def write_series_csv_oracle(path, series) -> int:
    """dataio.write_series_csv through csv.writer and ``fmt``, one point a row."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["journal_id", "country", "scheme", "year", "value", "ci_low", "ci_high",
                         "status"])
        for journal_id, country, scheme_value, points in series:
            for p in points:
                writer.writerow([journal_id, country, scheme_value, p.year, fmt(p.value),
                                 fmt(p.ci_low), fmt(p.ci_high), p.status])
                n += 1
    return n


def write_exclusions_csv_oracle(path, exclusions) -> int:
    """dataio.write_exclusions_csv through csv.writer and ``fmt``: sorted by
    (stage, reason, journal_id, year, country, scheme, offset), an absent
    year or offset as -1 and an absent scheme as ""."""
    def key(e):
        return (e.stage, e.reason, e.journal_id, e.year if e.year is not None else -1,
                e.country, e.scheme.value if e.scheme else "",
                e.offset if e.offset is not None else -1)

    rows = sorted(exclusions, key=key)
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["stage", "reason", "count", "journal_id", "year", "country", "scheme",
                         "offset"])
        for e in rows:
            writer.writerow([e.stage, e.reason, e.count, e.journal_id, fmt(e.year), e.country,
                             e.scheme.value if e.scheme else "", fmt(e.offset)])
    return len(rows)


def write_curves_csv_oracle(path, curves, scheme=True) -> int:
    """dataio.write_curves_csv through csv.writer and ``fmt``: curves sorted
    by (country, scheme), one point a row; with ``scheme`` False (the
    curves_<scheme>.csv view) the scheme column is left out."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["country", *(["scheme"] if scheme else []), "offset_years",
                         "inside_fraction", "n_comparisons", "simulated"])
        for curve in sorted(curves, key=lambda c: (c.country, c.scheme.value)):
            for p in curve.points:
                writer.writerow([curve.country, *([curve.scheme.value] if scheme else []),
                                 p.offset_years, fmt(p.inside_fraction), p.n_comparisons,
                                 fmt(p.simulated)])
                n += 1
    return n


def write_manifest_oracle(path, config: dict, outputs: dict) -> None:
    """dataio.write_manifest through json.dumps and hashlib: the config, the
    sha256 of its compact sorted-key JSON and the row counts, as sorted-key
    JSON with a two-space indent and a final newline."""
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()
    manifest = {"config": config, "config_sha256": digest, "outputs": outputs}
    Path(path).write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def oracle_bundle(config, out_dir) -> None:
    """Write the bundle of experiment.run_experiment(config, out_dir) stage by
    stage through the oracles: ingest_oracle (a scenario is generated by the
    library), cells_oracle, scalar_lag0_points, coverage_curve_oracle,
    series_oracle and the csv.writer oracles of cells.csv, curves.csv,
    curves_<scheme>.csv, series.csv, exclusions.csv and data.csv, and
    write_manifest_oracle. The countries are ranked by the library."""
    out = Path(out_dir)
    out.mkdir(parents=True)
    low, high = config.year_min, config.year_max
    if config.input_csv is None:
        cohorts = load_cohorts(config)
    else:
        cohorts = ingest_oracle(config.input_csv, year_min=low, year_max=high)[0]
    ranked = resolve_countries(config, cohorts)
    targets = [(country, scheme) for country in ranked.countries for scheme in config.schemes]
    if low is None or high is None:
        low, high = min(c.year for c in cohorts), max(c.year for c in cohorts)
    years = range(low, high + 1)

    cells, exclusions = cells_oracle(cohorts, ranked.countries, config.schemes, config.settings)
    points, lag0_exclusions = scalar_lag0_points(
        cohorts, targets, config.lag0_replicates, config.seed, config.settings
    )
    exclusions += lag0_exclusions
    curves = [
        coverage_curve_oracle(cells, country=country, scheme=scheme, years=years,
                              max_offset=config.max_offset, lag0_point=points[(country, scheme)],
                              exclusions=exclusions)
        for country, scheme in targets
    ]
    curves = [curve for curve in curves if curve.points]
    series = [
        (journal_id, country, scheme.value,
         series_oracle(cells, journal_id=journal_id, country=country, scheme=scheme, years=years))
        for journal_id in sorted({c.journal_id for c in cohorts})
        for country, scheme in targets
    ]
    outputs = {
        "cells.csv": write_cells_csv_oracle(out / "cells.csv", cells),
        "curves.csv": write_curves_csv_oracle(out / "curves.csv", curves),
        "series.csv": write_series_csv_oracle(out / "series.csv", series),
        "exclusions.csv": write_exclusions_csv_oracle(out / "exclusions.csv", exclusions),
    }
    for scheme in config.schemes:
        name = f"curves_{scheme.value}.csv"
        outputs[name] = write_curves_csv_oracle(
            out / name, [curve for curve in curves if curve.scheme is scheme], scheme=False
        )
    if config.scenario is not None:
        outputs["data.csv"] = write_records_csv_oracle(out / "data.csv", cohorts)
    resolved = {"countries": list(ranked.countries), "countries_complete": ranked.complete,
                "years": [years.start, years[-1]]}
    (out / "resolved.json").write_text(json.dumps(resolved, sort_keys=True, indent=2) + "\n",
                                       encoding="utf-8")
    write_manifest_oracle(out / "manifest.json", config.to_dict(), outputs)
