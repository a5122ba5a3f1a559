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

import numpy as np

from .errors import IngestError, ValidationError
from .model import (
    Cohort,
    check_citations,
    check_journal_id,
    parse_citations,
    parse_countries,
    parse_year,
)
from .fieller import OK, STATUSES
from .stability import CellTable, CoverageCurve, ExclusionRecord, SeriesPoint

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


CELL_FIELDS = (
    "journal_id", "year", "country", "scheme", "n_group", "n_field",
    "value", "ci_low", "ci_high", "h", "se_mnlcs", "status",
)


def write_cell_rows(f, table: CellTable, order: np.ndarray, fields=CELL_FIELDS) -> None:
    """Write a header and the cells ``order`` picks as CSV rows of ``fields``,
    1024 cells at a time so that little formatted text is alive at once."""
    writer = csv.writer(f, lineterminator="\n")
    writer.writerow(fields)
    for start in range(0, len(order), 1024):
        columns = _cell_columns(table, order[start:start + 1024])
        writer.writerows(zip(*(columns[name] for name in fields)))


def _cell_columns(table: CellTable, part: np.ndarray) -> dict[str, list[str]]:
    """The text of the cells ``part`` picks, one list per CELL_FIELDS name, as
    ``fmt`` formats each value: bounds and se are empty unless the cell is
    OK, h is empty where NaN, and the reported low is clamped at zero."""
    ok = (table.status[part] == OK).tolist()
    targets = [(country, scheme.value) for country, scheme in table.targets]
    target = table.target[part].tolist()

    def text(column):
        return [str(x) for x in column[part].tolist()]

    def bounded(column):
        return ["" if not k else f"{x:.9g}" for x, k in zip(column[part].tolist(), ok)]

    low = table.ci_low
    return {
        "journal_id": [table.journals[j] for j in table.journal[part].tolist()],
        "year": text(table.year),
        "country": [targets[t][0] for t in target],
        "scheme": [targets[t][1] for t in target],
        "n_group": text(table.n_group),
        "n_field": text(table.n_field),
        "value": [f"{x:.9g}" for x in table.value[part].tolist()],
        # max(0.0, low) of the scalar report, -0.0 and NaN included
        "ci_low": bounded(np.where(low > 0.0, low, 0.0)),
        "ci_high": bounded(table.ci_high),
        "h": ["" if x != x else f"{x:.9g}" for x in table.h[part].tolist()],
        "se_mnlcs": bounded(table.se),
        "status": [STATUSES[code].value for code in table.status[part].tolist()],
    }


def write_cells_csv(path: str | Path, table: CellTable) -> int:
    """Write the cells sorted by (journal, year, country, scheme), stable on ties."""
    targets = [(country, scheme.value) for country, scheme in table.targets]
    rank = {key: i for i, key in enumerate(sorted(set(targets)))}
    target_rank = np.array([rank[key] for key in targets], dtype=np.intp)
    # table.journals is sorted, so journal indices sort as the ids do
    order = np.lexsort((target_rank[table.target], table.year, table.journal))
    with open(path, "w", encoding="utf-8", newline="") as f:
        write_cell_rows(f, table, order)
    return len(order)


def write_curves_csv(path: str | Path, curves: Sequence[CoverageCurve], scheme: bool = True) -> int:
    """One row per curve point, curves sorted by (country, scheme); with
    ``scheme`` False the scheme column is left out."""
    header = ["country", "scheme", "offset_years", "inside_fraction", "n_comparisons", "simulated"]
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header if scheme else header[:1] + header[2:])
        for curve in sorted(curves, key=lambda c: (c.country, c.scheme.value)):
            for p in curve.points:
                writer.writerow([
                    curve.country, *([curve.scheme.value] if scheme else []), p.offset_years,
                    fmt(p.inside_fraction), p.n_comparisons, fmt(p.simulated),
                ])
                n += 1
    return n


def write_scheme_curves_csv(path: str | Path, curves: Sequence[CoverageCurve]) -> int:
    """Plot-ready per-scheme view: one line per country over the offsets."""
    return write_curves_csv(path, curves, scheme=False)


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
