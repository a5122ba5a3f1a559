"""CSV schemas, ingestion and result serialization.

Input schema (UTF-8, LF, no quoting):

    journal_id,year,citations,countries

where countries is a semicolon-separated list of ISO alpha-2 codes or
recognised country names, possibly empty. Output files render numbers with
9 significant digits so byte-level golden comparisons survive double
rounding, and every experiment directory carries a manifest recording the
resolved configuration and its hash.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .errors import IngestError, ValidationError
from .model import (
    Cohort,
    check_citations,
    check_journal_id,
    parse_citations,
    parse_countries,
    parse_year,
)
from .stability import CellResult, CoverageCurve, ExclusionRecord, SeriesPoint

CSV_HEADER = ["journal_id", "year", "citations", "countries"]


def fmt(x: object) -> str:
    """Serialise one CSV value; floats get 9 significant digits, None is empty."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def write_records_csv(path: str | Path, cohorts: Iterable[Cohort]) -> int:
    """Write cohorts in the input schema; returns the number of rows."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for cohort in cohorts:
            year = str(cohort.year)
            labels = [";".join(sorted(s)) for s in cohort.sets]
            writer.writerows(
                [cohort.journal_id, year, c, labels[k]]
                for c, k in zip(cohort.citations.tolist(), cohort.codes.tolist())
            )
            n += cohort.size
    return n


@dataclass
class IngestReport:
    """Outcome of one ingestion: volumes kept/dropped and per-row errors."""

    n_rows: int = 0
    n_kept: int = 0
    n_filtered: int = 0
    n_bad: int = 0
    row_errors: list[tuple[int, str]] = field(default_factory=list)


def ingest(
    path: str | Path,
    *,
    journals: Sequence[str] | None = None,
    year_min: int | None = None,
    year_max: int | None = None,
    max_bad_rows: int = 0,
) -> tuple[list[Cohort], IngestReport]:
    """Read and validate an input CSV into cohorts sorted by (journal, year).

    Rows outside the journal/year filters are dropped silently (they are
    selection, not errors). Malformed rows are collected with their line
    numbers; more than ``max_bad_rows`` of them aborts with IngestError.
    An empty file with a valid header yields zero cohorts.

    Rows are checked by the rules of ``validate_record``, in its order, but
    go straight into per-cohort columns: each distinct valid journal, year,
    citations and countries string is parsed once (citation counts repeat a
    lot), and no per-row record is built.
    """
    journal_filter = set(journals) if journals is not None else None
    n_rows = n_kept = n_filtered = 0
    row_errors: list[tuple[int, str]] = []
    journal_ids: dict[str, str] = {}
    years: dict[str, int] = {}
    counts: dict[str, int] = {}
    set_codes: dict[str, int] = {}
    sets: list[frozenset[str]] = []
    columns: dict[tuple[str, int], tuple[list[int], list[int]]] = {}

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
            n_rows += 1
            if len(row) != len(CSV_HEADER):
                row_errors.append((line_no, f"expected {len(CSV_HEADER)} fields, got {len(row)}"))
                continue
            journal_raw, year_raw, citations_raw, countries_raw = row
            try:
                year = years.get(year_raw)
                if year is None:
                    year = years[year_raw] = parse_year(year_raw)
                citations = counts.get(citations_raw)
                if citations is None:
                    citations = counts[citations_raw] = parse_citations(citations_raw)
                code = set_codes.get(countries_raw)
                if code is None:
                    sets.append(parse_countries(countries_raw))
                    code = set_codes[countries_raw] = len(sets) - 1
                journal_id = journal_ids.get(journal_raw)
                if journal_id is None:
                    journal_id = journal_ids[journal_raw] = check_journal_id(journal_raw.strip())
                check_citations(citations)
            except ValidationError as exc:
                row_errors.append((line_no, str(exc)))
                continue
            if (
                (journal_filter is not None and journal_id not in journal_filter)
                or (year_min is not None and year < year_min)
                or (year_max is not None and year > year_max)
            ):
                n_filtered += 1
                continue
            column = columns.get((journal_id, year))
            if column is None:
                column = columns[(journal_id, year)] = ([], [])
            column[0].append(citations)
            column[1].append(code)
            n_kept += 1

    if len(row_errors) > max_bad_rows:
        first = row_errors[: 10]
        detail = "; ".join(f"line {ln}: {msg}" for ln, msg in first)
        raise IngestError(
            f"{path}: {len(row_errors)} malformed rows exceed tolerance {max_bad_rows} ({detail})",
            row_errors=row_errors,
        )
    all_sets = tuple(sets)
    cohorts = [
        Cohort(journal_id, year, *columns[(journal_id, year)], all_sets)
        for journal_id, year in sorted(columns)
    ]
    return cohorts, IngestReport(n_rows, n_kept, n_filtered, len(row_errors), row_errors)


def write_cells_csv(path: str | Path, cells: Sequence[CellResult]) -> int:
    header = [
        "journal_id", "year", "country", "scheme", "n_group", "n_field",
        "value", "ci_low", "ci_high", "h", "se_mnlcs", "status",
    ]
    rows = sorted(cells, key=lambda c: (c.journal_id, c.year, c.country, c.scheme.value))
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


def write_curves_csv(path: str | Path, curves: Sequence[CoverageCurve]) -> int:
    header = ["country", "scheme", "offset_years", "inside_fraction", "n_comparisons", "simulated"]
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for curve in sorted(curves, key=lambda c: (c.country, c.scheme.value)):
            for p in curve.points:
                writer.writerow([
                    curve.country,
                    curve.scheme.value,
                    p.offset_years,
                    fmt(p.inside_fraction),
                    p.n_comparisons,
                    fmt(p.simulated),
                ])
                n += 1
    return n


def write_scheme_curves_csv(path: str | Path, curves: Sequence[CoverageCurve]) -> int:
    """Plot-ready per-scheme view: one line per country over the offsets."""
    header = ["country", "offset_years", "inside_fraction", "n_comparisons", "simulated"]
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for curve in sorted(curves, key=lambda c: c.country):
            for p in curve.points:
                writer.writerow([
                    curve.country,
                    p.offset_years,
                    fmt(p.inside_fraction),
                    p.n_comparisons,
                    fmt(p.simulated),
                ])
                n += 1
    return n


def write_series_csv(
    path: str | Path,
    series: Iterable[tuple[str, str, str, Sequence[SeriesPoint]]],
) -> int:
    """Write (journal_id, country, scheme_value, points) series blocks, in one pass."""
    header = ["journal_id", "country", "scheme", "year", "value", "ci_low", "ci_high", "status"]
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for journal_id, country, scheme_value, points in series:
            for p in points:
                writer.writerow([
                    journal_id, country, scheme_value, p.year,
                    fmt(p.value), fmt(p.ci_low), fmt(p.ci_high), p.status,
                ])
                n += 1
    return n


def write_exclusions_csv(path: str | Path, exclusions: Sequence[ExclusionRecord]) -> int:
    header = ["stage", "reason", "count", "journal_id", "year", "country", "scheme", "offset"]
    rows = sorted(
        exclusions,
        key=lambda e: (
            e.stage, e.reason, e.journal_id, e.year if e.year is not None else -1,
            e.country, e.scheme.value if e.scheme else "", e.offset if e.offset is not None else -1,
        ),
    )
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for e in rows:
            writer.writerow([
                e.stage, e.reason, e.count, e.journal_id,
                fmt(e.year), e.country, e.scheme.value if e.scheme else "", fmt(e.offset),
            ])
    return len(rows)


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_manifest(path: str | Path, config: dict, outputs: dict[str, int]) -> None:
    """Persist the resolved configuration, its hash, and output row counts.

    Deliberately carries no timestamps or host details: rerunning the same
    manifest must reproduce every output byte for byte.
    """
    manifest = {
        "config": config,
        "config_sha256": config_hash(config),
        "outputs": outputs,
    }
    with open(path, "w", encoding="utf-8", newline="") as f:
        json.dump(manifest, f, sort_keys=True, indent=2)
        f.write("\n")
