"""CSV schemas, ingestion and result serialization.

Input schema (UTF-8, one header line):

    journal_id,year,citations,countries

where countries is a semicolon-separated list of ISO alpha-2 codes or
recognised country names, possibly empty. ``write_records_csv`` quotes a
field only where csv.writer would, as in a journal id with a quote.

``ingest`` reads the rows in text blocks of whole lines, each ``_BLOCK``
characters and the rest of the line they end in. A plain block (no quote,
CR or NUL, three commas a line) splits into its four columns with one
replace and split, with no string per line; any other block is split into
lines as file iteration splits them and goes through csv.reader, which
reads on in the file, line by line, only to close a quoted field, so the
next block is tested for the plain route again. After that
both routes are one path: each column's strings become int codes, every
distinct string parsed once (``_Column``), and row errors, filters and
cohort grouping are array operations on the codes' values. The cohorts are
built from the file's one list of sets, each distinct pattern of used sets
ordered and checked once (``model._canonical_codes``).

Every output table but data.csv, whose writer joins a cohort's rows at
once, goes through ``write_table`` (to a path or an open text file such as
stdout), which takes each row as ready CSV text, one f-string or one
``",".join``, and writes lines in chunks. ``quote_field`` is the one quoting
rule, csv.writer's, run once per distinct journal id or label text; the
journal id is the only field that can need it (``check_journal_id`` allows a
quote), as the other texts are fixed or numbers. ``write_json`` is the one
JSON form. Numbers get 9 significant digits so byte-level golden comparisons
survive double rounding, and every experiment directory carries a manifest
recording the resolved configuration and its hash. ``write_cells_csv``
writes cells.csv, and the CLI's shorter stdout table of cells, from the
``CellGrid``'s arrays: it picks the present cells by flat index in
(journal, year, country, scheme) order, and ``_cell_columns`` formats each
column for 1024 cells at a time.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from array import array
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, islice
from operator import add
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import IngestError, ValidationError
from .model import (
    YEAR_MAX,
    Cohort,
    Scheme,
    _canonical_codes,
    check_citations,
    check_journal_id,
    parse_citations,
    parse_countries,
    parse_year,
)
from .fieller import STATUS_TEXT
from .stability import CellGrid, CoverageCurve, ExclusionRecord, SeriesPoint

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


def quote_field(text: str) -> str:
    """``text`` as csv.writer writes it as one field of a row of several:
    quoted, its quotes doubled, where it holds a comma, quote or line break."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow((text, ""))
    return buffer.getvalue()[:-2]


def write_table(out, header: Sequence[str], lines: Iterable[str]) -> int:
    """Write ``header`` and ``lines``, each a row's CSV text without its line
    end, to ``out``, a path or an open text file, 1024 lines per write;
    returns the number of lines. A field that may hold a comma, quote or
    line break (a journal id) has been through ``quote_field``."""
    if not hasattr(out, "write"):
        with open(out, "w", encoding="utf-8", newline="") as f:
            return write_table(f, header, lines)
    out.write(",".join(header) + "\n")
    n, lines = 0, iter(lines)
    while chunk := list(islice(lines, 1024)):
        n += len(chunk)
        out.write("\n".join(chunk) + "\n")
    return n


def write_json(path: str | Path, data: dict) -> None:
    """Write ``data`` as JSON with sorted keys, a two-space indent and a final newline."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        json.dump(data, f, sort_keys=True, indent=2)
        f.write("\n")


_COUNT_TEXTS = 1 << 16  # write_records_csv's list of count texts stops below this


def write_records_csv(path: str | Path, cohorts: Iterable[Cohort]) -> int:
    """Write cohorts in the input schema; returns the number of rows.

    Each distinct journal id and each cohort's set labels are quoted once,
    and a citation count's text comes from one list of number strings,
    grown to the largest count seen; a cohort's rows, each its count's text
    and its set's tail, are joined with the cohort's "id,year," head in one
    write.
    """
    quoted = cache(quote_field)
    counts: list[str] = []
    tails_of: dict[tuple, list[str]] = {}  # ",labels\n" of each set, per distinct sets tuple
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(CSV_HEADER) + "\n")
        for cohort in cohorts:
            head = f"{quoted(cohort.journal_id)},{cohort.year},"
            tails = tails_of.get(cohort.sets)
            if tails is None:
                tails = tails_of[cohort.sets] = [f",{quote_field(';'.join(sorted(s)))}\n"
                                                 for s in cohort.sets]
            top = int(cohort.citations.max())
            if len(counts) <= top < _COUNT_TEXTS:
                counts.extend(map(str, range(len(counts), top + 1)))
            texts = map(counts.__getitem__ if top < len(counts) else str, cohort.citations.tolist())
            f.write(head + head.join(map(add, texts, map(tails.__getitem__, cohort.codes.tolist()))))
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


# characters that ingest reads at a time
_BLOCK = 1 << 15
# (journal code, year) pairs key cohorts as code * _YEAR_SPAN + year
_YEAR_SPAN = YEAR_MAX + 1


def _plain_columns(text: str) -> list[list[str]] | None:
    """The four columns of the lines of ``text`` if csv.reader would read
    each line as its text split at its three commas, else None.

    That holds when the text has no quote, CR or NUL, every line has exactly
    three commas, and none is longer than the csv field size limit. The
    first field of every line after the first keeps the newline before it;
    the journal id rule strips it, as it strips blanks.
    """
    limit = csv.field_size_limit()
    if '"' in text or "\r" in text or "\0" in text or (
        len(text) > limit and max(map(len, text.split("\n"))) > limit
    ):
        return None
    ends = text.endswith("\n")
    n = text.count("\n") + (not ends)
    # each newline now starts a field and no field holds two, so the lines
    # have three commas each exactly when the fields 4, 8, ... hold the n - 1
    # newlines between them and the field count fits
    fields = text.replace("\n", ",\n").split(",")
    if len(fields) != 4 * n + ends or "".join(fields[4:4 * n:4]).count("\n") != n - 1:
        return None
    return [fields[k:4 * n:4] for k in range(4)]


def _blocks(f):
    """The rest of ``f`` as blocks of whole lines: ``_BLOCK`` characters and
    the rest of the line the read ends in, which ``f.readline`` reads, so a
    block holds at most ``_BLOCK`` characters plus its longest line. With
    ``newline=""`` a line ends at LF, CRLF or a lone CR, as file iteration
    ends it; a read that ends on the CR of a CRLF gets the LF."""
    while block := f.read(_BLOCK):
        yield block + f.readline()


def _chunks(f):
    """The rows after the header, one block (``_blocks``) at a time, as
    (lines, columns, errors): the line number of each row with four fields,
    their four columns, and (line, message) of each row with another number
    of fields. Lines are numbered by csv.reader's records: blank rows are
    skipped but numbered, and a quoted newline makes two lines one record.

    A plain block (see ``_plain_columns``) is split as one string; any other
    block is split into lines as file iteration splits them (not at the
    other breaks that ``str.splitlines`` knows, such as \\x0b or \\x85) and
    goes through csv.reader. The reader takes a line only when it needs one,
    so it reads on in ``f`` line by line only while a quoted field is open,
    and the next block starts after the line that closes it. Every block
    starts on a record boundary and may take the plain route.
    """
    line = 2
    for text in _blocks(f):
        if (columns := _plain_columns(text)) is not None:
            yield range(line, line + len(columns[0])), columns, []
            line += len(columns[0])
            continue
        lines = list(io.StringIO(text, newline=""))
        reader = csv.reader(chain(lines, iter(f.readline, "")))
        rows, numbers, errors = [], [], []
        while reader.line_num < len(lines):
            row = next(reader)
            if len(row) == len(CSV_HEADER):
                rows.append(row)
                numbers.append(line)
            elif row:
                errors.append((line, f"expected {len(CSV_HEADER)} fields, got {len(row)}"))
            line += 1
        yield numbers, list(zip(*rows)) or [()] * len(CSV_HEADER), errors


class _Column(dict):
    """The code of each distinct string of one CSV column, given when the
    string is first seen and parsed: ``values[code]`` is what ``parse``
    returned (0 where it raised) and ``errors[code]`` the ValidationError
    text or None. ``value`` and ``bad`` hold the same as arrays."""

    def __init__(self, parse):
        super().__init__()
        self.parse = parse
        self.values: list = []
        self.errors: list[str | None] = []
        self.value = np.zeros(0, dtype=np.int64)
        self.bad = np.zeros(0, dtype=bool)

    def __missing__(self, raw: str) -> int:
        try:
            value, error = self.parse(raw), None
        except ValidationError as exc:
            value, error = 0, str(exc)
        code = self[raw] = len(self.values)
        self.values.append(value)
        self.errors.append(error)
        return code

    def codes(self, column) -> np.ndarray:
        """The code of each string of ``column``, with ``value`` and ``bad``
        extended to the strings first seen there."""
        codes = np.fromiter(map(self.__getitem__, column), dtype=np.intp, count=len(column))
        new = len(self.values) - len(self.bad)
        if new:
            self.value = np.concatenate((self.value, np.array(self.values[-new:], dtype=np.int64)))
            self.bad = np.concatenate((self.bad, [e is not None for e in self.errors[-new:]]))
        return codes


def _sign_error(citations: int) -> str | None:
    """``check_citations``' message for ``citations``, or None."""
    try:
        check_citations(citations)
    except ValidationError as exc:
        return str(exc)
    return None


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

    The header goes through csv.reader, the rows through ``_chunks``: one
    block of whole lines at a time, the file object ending each block at a
    line end, each plain block split into its four columns in one pass and
    each other block read by csv.reader. Each column's strings become int
    codes (``_Column``): every distinct journal, year, citations and
    countries string is parsed once, and a row's fields are its codes'
    values. Boolean masks then find each row's first error in
    ``validate_record``'s order (year, citations, countries, journal id,
    negative count) and apply the filters; messages are built for bad rows
    only. Kept rows join their cohort's int32 columns block by block, stable
    within each cohort. Each cohort then takes its set codes in canonical
    form from ``_canonical_codes`` over the file's sets, which remaps each
    distinct pattern of used sets once and gives its cohorts one shared
    ``sets`` tuple, and is built without the constructor's checks, which
    the rows have passed (``Cohort._trusted``).
    """
    journal_filter = set(journals) if journals is not None else None
    ids: dict[str, int] = {}
    sets: dict[frozenset[str], int] = {}

    def journal_code(raw: str) -> int:
        """Code of the journal id; -1 for a valid id the filter drops."""
        journal_id = check_journal_id(raw.strip())
        if journal_filter is not None and journal_id not in journal_filter:
            return -1
        return ids.setdefault(journal_id, len(ids))

    year_col = _Column(parse_year)
    count_col = _Column(parse_citations)
    set_col = _Column(lambda raw: sets.setdefault(parse_countries(raw), len(sets)))
    journal_col = _Column(journal_code)
    # each kept cohort's citation and set codes, keyed as _YEAR_SPAN says
    cohort_columns: dict[int, tuple[array, array]] = {}
    n_rows = n_kept = n_filtered = 0
    row_errors: list[tuple[int, str]] = []

    with open(path, "r", encoding="utf-8", newline="") as f:
        try:
            header = next(csv.reader(f))
        except StopIteration:
            raise IngestError(f"{path}: empty file, expected header {CSV_HEADER}") from None
        if [h.strip() for h in header] != CSV_HEADER:
            raise IngestError(f"{path}: bad header {header!r}, expected {CSV_HEADER}")

        for lines, (journal_raw, year_raw, citations_raw, countries_raw), errors in _chunks(f):
            n_rows += len(lines) + len(errors)
            y, c = year_col.codes(year_raw), count_col.codes(citations_raw)
            s, j = set_col.codes(countries_raw), journal_col.codes(journal_raw)
            negative = (count_col.value < 0)[c]
            bad = year_col.bad[y] | count_col.bad[c] | set_col.bad[s] | journal_col.bad[j] | negative
            if bad.any() or errors:
                stages = ((year_col, y), (count_col, c), (set_col, s), (journal_col, j))
                for i in np.flatnonzero(bad).tolist():
                    error = next(filter(None, (col.errors[codes[i]] for col, codes in stages)), None)
                    errors.append((lines[i], error or _sign_error(count_col.values[c[i]])))
                row_errors += sorted(errors)

            journal, year = journal_col.value[j], year_col.value[y]
            keep = ~bad & (journal >= 0)
            if year_min is not None:
                keep &= year >= year_min
            if year_max is not None:
                keep &= year <= year_max
            rows = np.flatnonzero(keep)
            n_kept += len(rows)
            n_filtered += len(lines) - int(np.count_nonzero(bad)) - len(rows)

            key = journal[rows] * _YEAR_SPAN + year[rows]
            order = np.argsort(key, kind="stable")
            rows, key = rows[order], key[order]
            citations = c[rows].astype(np.intc)
            codes = set_col.value[s[rows]].astype(np.intc)
            starts = np.flatnonzero(np.diff(key, prepend=-1)).tolist()
            for start, stop in zip(starts, starts[1:] + [len(rows)]):
                cohort = cohort_columns.get(int(key[start]))
                if cohort is None:
                    cohort = cohort_columns[int(key[start])] = (array("i"), array("i"))
                cohort[0].frombytes(citations[start:stop].tobytes())
                cohort[1].frombytes(codes[start:stop].tobytes())

    if len(row_errors) > max_bad_rows:
        first = row_errors[: 10]
        detail = "; ".join(f"line {ln}: {msg}" for ln, msg in first)
        raise IngestError(
            f"{path}: {len(row_errors)} malformed rows exceed tolerance {max_bad_rows} ({detail})",
            row_errors=row_errors,
        )
    names, canonical = list(ids), _canonical_codes(tuple(sets))
    cohorts = []
    for key in sorted(cohort_columns, key=lambda k: (names[k // _YEAR_SPAN], k % _YEAR_SPAN)):
        citations, codes = (np.frombuffer(a, dtype=np.intc) for a in cohort_columns.pop(key))
        journal, year = divmod(key, _YEAR_SPAN)
        cohorts.append(Cohort._trusted(names[journal], year, count_col.value[citations], *canonical(codes)))
    return cohorts, IngestReport(n_rows, n_kept, n_filtered, len(row_errors), row_errors)


CELL_FIELDS = (
    "journal_id", "year", "country", "scheme", "n_group", "n_field",
    "value", "ci_low", "ci_high", "h", "se_mnlcs", "status",
)


def _cell_columns(grid: CellGrid, flat: np.ndarray, journals) -> dict[str, list[str]]:
    """The text of the cells at the ``flat`` grid indices, one list per
    CELL_FIELDS name, as ``fmt`` formats each value: bounds and se are empty
    unless the cell is OK, h is empty where NaN, and the reported low is
    clamped at zero. ``journals`` holds the grid's quoted journal ids."""
    ok = grid.ok.reshape(-1)[flat].tolist()
    targets = [(country, scheme.value) for country, scheme in grid.targets]
    target, journal, year = (a.tolist() for a in np.unravel_index(flat, grid.present.shape))

    def at(column):
        return column.reshape(-1)[flat].tolist()

    def bounded(column):
        return ["" if not k else f"{x:.9g}" for x, k in zip(at(column), ok)]

    return {
        "journal_id": [journals[j] for j in journal],
        "year": [str(grid.years.start + y) for y in year],
        "country": [targets[t][0] for t in target],
        "scheme": [targets[t][1] for t in target],
        "n_group": [str(n) for n in at(grid.n_group)],
        "n_field": [str(n) for n in at(grid.n_field)],
        "value": [f"{x:.9g}" for x in at(grid.value)],
        "ci_low": bounded(grid.ci_low_reported),
        "ci_high": bounded(grid.ci_high),
        "h": ["" if x != x else f"{x:.9g}" for x in at(grid.h)],
        "se_mnlcs": bounded(grid.se),
        "status": [STATUS_TEXT[code] for code in at(grid.status)],
    }


def write_cells_csv(out, grid: CellGrid, fields: Sequence[str] = CELL_FIELDS) -> int:
    """Write the grid's cells as rows of ``fields``, two or more CELL_FIELDS
    names, to ``out``, a path or an open text file, sorted by (journal, year,
    country, scheme): ``np.nonzero`` over the cells with the target axis
    last, in (country, scheme) order. Journals and years are sorted axes and
    targets are distinct, so no two cells tie. Rows are formatted 1024 cells
    at a time, so that little text is alive at once; returns the cell count."""
    targets = list(grid.targets)
    rank = sorted(range(len(targets)), key=lambda t: (targets[t][0], targets[t][1].value))
    j, y, r = np.nonzero(grid.present[rank].transpose(1, 2, 0))
    flat = np.ravel_multi_index((np.array(rank, dtype=np.intp)[r], j, y), grid.present.shape)
    journals = [quote_field(journal_id) for journal_id in grid.journals]
    chunks = (_cell_columns(grid, flat[k:k + 1024], journals) for k in range(0, len(flat), 1024))
    rows = chain.from_iterable(zip(*(columns[name] for name in fields)) for columns in chunks)
    return write_table(out, fields, map(",".join, rows))


def write_curves_csv(path: str | Path, curves: Sequence[CoverageCurve], scheme: bool = True) -> int:
    """One row per curve point, curves sorted by (country, scheme); with
    ``scheme`` False the scheme column is left out."""
    header = ["country", "scheme", "offset_years", "inside_fraction", "n_comparisons", "simulated"]
    lines = (
        f"{head}{p.offset_years},{fmt(p.inside_fraction)},{p.n_comparisons},{fmt(p.simulated)}"
        for curve in sorted(curves, key=lambda c: (c.country, c.scheme.value))
        for head in [f"{curve.country},{curve.scheme.value}," if scheme else f"{curve.country},"]
        for p in curve.points
    )
    return write_table(path, header if scheme else header[:1] + header[2:], lines)


def write_scheme_curves_csv(path: str | Path, curves: Sequence[CoverageCurve]) -> int:
    """Plot-ready per-scheme view: one line per country over the offsets."""
    return write_curves_csv(path, curves, scheme=False)


def write_series_csv(
    path: str | Path,
    series: Iterable[tuple[str, str, str, Sequence[SeriesPoint]]],
) -> int:
    """Write (journal_id, country, scheme_value, points) series blocks, in one
    pass; each line is one f-string after its block's quoted head."""
    header = ["journal_id", "country", "scheme", "year", "value", "ci_low", "ci_high", "status"]
    quoted = cache(quote_field)
    lines = (
        f"{head}{year},{'' if value is None else f'{value:.9g}'},"
        f"{'' if low is None else f'{low:.9g}'},{'' if high is None else f'{high:.9g}'},{status}"
        for journal_id, country, scheme_value, points in series
        for head in [f"{quoted(journal_id)},{country},{scheme_value},"]
        for year, value, low, high, status in points
    )
    return write_table(path, header, lines)


_SCHEME_TEXT = {None: "", **{s: s.value for s in Scheme}}


def write_exclusions_csv(path: str | Path, exclusions: Sequence[ExclusionRecord]) -> int:
    """Write the exclusion tallies sorted by their fields, count left out."""
    header = ["stage", "reason", "count", "journal_id", "year", "country", "scheme", "offset"]
    quoted = cache(quote_field)
    lines = (
        f"{stage},{reason},{n},{quoted(journal_id)},{'' if year is None else year},{country},"
        f"{_SCHEME_TEXT[scheme]},{'' if offset is None else offset}"
        for stage, reason, n, journal_id, year, country, scheme, offset in sorted(
            exclusions, key=lambda e: (
                e.stage, e.reason, e.journal_id, -1 if e.year is None else e.year,
                e.country, _SCHEME_TEXT[e.scheme], -1 if e.offset is None else e.offset,
            ))
    )
    return write_table(path, header, lines)


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_manifest(path: str | Path, config: dict, outputs: dict[str, int]) -> None:
    """Persist the resolved configuration, its hash, and output row counts.

    Deliberately carries no timestamps or host details: rerunning the same
    manifest must reproduce every output byte for byte.
    """
    write_json(path, {"config": config, "config_sha256": config_hash(config), "outputs": outputs})
