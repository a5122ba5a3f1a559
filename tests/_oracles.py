"""Independent numerical oracles for the test suite.

These deliberately avoid the code paths they are used to check: the t
quantile comes from quadrature of the density plus bisection (the library
uses scipy's inverse CDF), the discretised-lognormal expectation comes
from direct series summation against the normal CDF, and split-half
decisions and cells are rebuilt one at a time through a scalar Fieller
interval written with math.sqrt (only the splits themselves are shared with
the engine), group membership and cells are decided record by record, not
through the library's membership matrix, CSV ingest, writing and the
canonical split order go through one CitationRecord per row, not through
columns, and coverage curves and series look up one cell per (journal,
year) pair in a dict, not in the library's cell grid.
"""

import csv
import math

import numpy as np
from scipy import integrate
from scipy.stats import norm

from mnlcs.bootstrap import half_a_blocks
from mnlcs.dataio import CSV_HEADER, IngestReport
from mnlcs.errors import DegenerateField, IngestError, ValidationError
from mnlcs.fieller import t_quantile
from mnlcs.indicator import log_stats_from_logs
from mnlcs.model import (
    CitationRecord,
    Cohort,
    EstimateStatus,
    MnlcsEstimate,
    Scheme,
    validate_record,
)
from mnlcs.stability import (
    CellResult,
    CoverageCurve,
    CurvePoint,
    ExclusionRecord,
    SeriesPoint,
)


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


def estimate_oracle(group, field, settings) -> MnlcsEstimate:
    """fieller.estimate through fieller_oracle, one pair at a time."""
    if field.mean <= 0.0:
        raise DegenerateField("field mean of ln(1+c) is zero")
    value = group.mean / field.mean
    if group.n < settings.min_group_n or field.n < 2:
        return MnlcsEstimate(
            value, None, None, None, None, group.n, field.n, EstimateStatus.INSUFFICIENT_DATA
        )
    t = t_quantile(group.n + field.n - 2, settings.alpha)
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
                cells.append(CellResult(c.journal_id, c.year, country, scheme, est))
    return cells, exclusions


def split_half(cohort: Cohort, rng_seed: int) -> tuple[Cohort, Cohort]:
    """Replicate 0's split of ``cohort`` as two cohorts, records in input order."""
    half_a = next(half_a_blocks(cohort, 1, rng_seed))[0]
    in_a = np.zeros(cohort.size, dtype=bool)
    in_a[half_a] = True
    recs = cohort.records
    return (
        Cohort.from_records(cohort.journal_id, cohort.year, tuple(r for r, a in zip(recs, in_a) if a)),
        Cohort.from_records(cohort.journal_id, cohort.year, tuple(r for r, a in zip(recs, in_a) if not a)),
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
    rep = 0
    for block in half_a_blocks(cohort, replicates, rng_seed):
        for idx_a in block:
            in_a = np.zeros(cohort.size, dtype=bool)
            in_a[idx_a] = True
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
            rep += 1
    return valid, inside


def canonical_order(cohort: Cohort) -> list[int]:
    """Record indices sorted by (citations, sorted countries), stable on ties."""
    recs = cohort.records
    return sorted(range(cohort.size), key=lambda i: (recs[i].citations, tuple(sorted(recs[i].countries))))


def record_to_row(record: CitationRecord) -> list[str]:
    return [
        record.journal_id,
        str(record.year),
        str(record.citations),
        ";".join(sorted(record.countries)),
    ]


def group_into_cohorts(records) -> list[Cohort]:
    """Group records into cohorts sorted by (journal, year)."""
    buckets: dict[tuple[str, int], list[CitationRecord]] = {}
    for rec in records:
        buckets.setdefault((rec.journal_id, rec.year), []).append(rec)
    return [
        Cohort.from_records(journal_id, year, tuple(buckets[(journal_id, year)]))
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
    for offset in range(1, max_offset + 1):
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
