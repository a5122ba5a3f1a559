import csv
import io
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    CellRow,
    grid_cells,
    grid_of,
    group_into_cohorts,
    ingest_oracle,
    write_cells_csv_oracle,
    write_records_csv_oracle,
)
from mnlcs import dataio
from mnlcs.dataio import (
    CELL_FIELDS,
    CSV_HEADER,
    config_hash,
    fmt,
    ingest,
    quote_field,
    write_cells_csv,
    write_records_csv,
)
from mnlcs.errors import IngestError
from mnlcs.fieller import CiSettings
from mnlcs.stability import compute_cells
from mnlcs.model import Cohort, EstimateStatus, MnlcsEstimate, Scheme, check_journal_id
from mnlcs.synth import GroupSpec, ScenarioSpec, generate


def small_scenario(seed=3):
    return ScenarioSpec(
        n_journals=2,
        year_start=2000,
        year_end=2002,
        field_size_per_year=40,
        groups=(GroupSpec("AA", 0.3, 1.0, 1.0), GroupSpec("BB", 0.25, 1.2, 0.8)),
        collab_fraction=0.5,
        rng_seed=seed,
    )


def test_round_trip_generate_write_ingest(tmp_path):
    cohorts = generate(small_scenario())
    path = tmp_path / "data.csv"
    n = write_records_csv(path, cohorts)
    assert n == 2 * 3 * 40
    back, report = ingest(path)
    assert report.n_bad == 0
    assert report.n_kept == n
    assert back == cohorts


def test_round_trip_larger_than_one_chunk(tmp_path):
    spec = ScenarioSpec(**{**vars(small_scenario()), "n_journals": 4, "field_size_per_year": 300})
    cohorts = generate(spec)
    path = tmp_path / "data.csv"
    assert write_records_csv(path, cohorts) == 3600
    assert path.stat().st_size > dataio._BLOCK
    back, report = ingest(path)
    assert (report.n_rows, report.n_kept, report.n_bad) == (3600, 3600, 0)
    assert back == cohorts


def test_ingested_cohorts_share_one_sets_tuple_per_pattern(tmp_path):
    cohorts = generate(small_scenario())
    path = tmp_path / "data.csv"
    write_records_csv(path, cohorts + [Cohort("J9", 2000, [1, 2], [0, 0], (frozenset({"US"}),))])
    back, _ = ingest(path)
    assert back[:-1] == cohorts and back[-1].sets == (frozenset({"US"}),)
    assert len({id(c.sets) for c in back}) == len({c.sets for c in back}) == 2
    for c in back:
        assert c.citations.dtype == np.int64 and c.codes.dtype == np.intp
        assert not c.citations.flags.writeable and not c.codes.flags.writeable


def test_records_csv_equals_row_writer(tmp_path):
    # journal ids that csv.writer must quote, repeated sets, an empty set,
    # counts past the writer's list of count texts and then just inside it
    sets = (frozenset(), frozenset({"US", "JP"}), frozenset({"DE"}))
    cohorts = [
        *generate(small_scenario()),
        Cohort('J"1', 1999, [3, 0, 12, 3], [1, 0, 2, 1], sets),
        Cohort(" J 2 ", 2001, [7], [2], sets),
        Cohort("J3", 2002, [5, dataio._COUNT_TEXTS, 2**40], [0, 1, 2], sets),
        Cohort("J3", 2003, [dataio._COUNT_TEXTS - 1, 9], [2, 0], sets),
    ]
    assert write_records_csv(tmp_path / "joined.csv", cohorts) == 250
    assert write_records_csv_oracle(tmp_path / "rows.csv", cohorts) == 250
    assert (tmp_path / "joined.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_empty_file_with_header_is_fine(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(",".join(CSV_HEADER) + "\n", encoding="utf-8")
    cohorts, report = ingest(path)
    assert cohorts == []
    assert report.n_rows == 0


def test_missing_header_aborts(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("journal,year\nJ1,2000\n", encoding="utf-8")
    with pytest.raises(IngestError):
        ingest(path)


def test_truly_empty_file_aborts(tmp_path):
    path = tmp_path / "none.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(IngestError):
        ingest(path)


def test_bad_row_aborts_with_line_number(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "journal_id,year,citations,countries\n"
        "J1,2000,5,US\n"
        "J1,2000,-2,US\n",
        encoding="utf-8",
    )
    with pytest.raises(IngestError) as exc_info:
        ingest(path, max_bad_rows=0)
    assert exc_info.value.row_errors[0][0] == 3


def test_bad_rows_within_tolerance_are_reported(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "journal_id,year,citations,countries\n"
        "J1,2000,5,US\n"
        "J1,2000,oops,US\n"
        "J1,2000,2,JP\n",
        encoding="utf-8",
    )
    cohorts, report = ingest(path, max_bad_rows=1)
    assert report.n_bad == 1
    assert report.row_errors[0][0] == 3
    assert cohorts[0].size == 2


def test_filters_drop_rows_silently(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "journal_id,year,citations,countries\n"
        "J1,2000,5,US\n"
        "J2,2000,5,US\n"
        "J1,1990,5,US\n",
        encoding="utf-8",
    )
    cohorts, report = ingest(path, journals=["J1"], year_min=1995, year_max=2005)
    assert len(cohorts) == 1
    assert report.n_kept == 1
    assert report.n_filtered == 2
    assert report.n_bad == 0


def test_group_into_cohorts_sorted():
    cohorts = generate(small_scenario())
    records = [r for c in reversed(cohorts) for r in c.records]
    regrouped = group_into_cohorts(records)
    assert [(c.journal_id, c.year) for c in regrouped] == [
        (c.journal_id, c.year) for c in cohorts
    ]


# the journal ids check_journal_id accepts: no comma, semicolon or line
# break, but quotes, blanks at either end and any other character
journal_ids = st.text(
    st.one_of(st.sampled_from('"\' \t\xe9\u6587'), st.characters(blacklist_characters=",;\r\n")),
    min_size=1,
).map(check_journal_id)  # which returns the id, or raises on one it rejects


@settings(max_examples=300, deadline=None)
@given(journal_ids, st.lists(st.sampled_from(["", "x", "1.5", "US"]), min_size=1, max_size=3))
def test_quote_field_writes_what_csv_writer_writes(journal_id, others):
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([*others, journal_id, *others])
    joined = ",".join([*others, quote_field(journal_id), *others]) + "\n"
    assert joined == buffer.getvalue()
    assert next(csv.reader(io.StringIO(joined)))[len(others)] == journal_id


def test_fmt_nine_significant_digits():
    assert fmt(1.0 / 3.0) == "0.333333333"
    assert fmt(123456789012.0) == "1.23456789e+11"
    assert fmt(0.1) == "0.1"
    assert fmt(None) == ""
    assert fmt(True) == "true"
    assert fmt(7) == "7"


def test_cells_csv_shape(tmp_path):
    cohorts = generate(small_scenario())
    grid = compute_cells(cohorts, ["AA", "BB"], list(Scheme), CiSettings())
    path = tmp_path / "cells.csv"
    n = write_cells_csv(path, grid)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == n + 1
    assert lines[0].startswith("journal_id,year,country,scheme")


# values whose 9-digit rendering is easy to get wrong, lows that clamp
# (negative, -0.0, exactly 0, NaN), and NaN bounds and se under OK
cell_values = st.one_of(
    st.sampled_from([0.0, 1.0, 1e-7, 0.1, 123456789.123, 2.5e11]), st.floats(0.0, 1e3)
)
cell_lows = st.one_of(
    st.sampled_from([-0.5, -0.0, 0.0, 5e-324, math.nan]), st.floats(-2.0, 2.0)
)
cell_bounds = st.one_of(st.just(math.nan), st.floats(0.0, 1e4))


@st.composite
def cells_to_write(draw):
    """CellRows of every status with distinct keys drawn from a few journals,
    years and countries; n_group 1 and printed-form h = inf (h None while
    unbounded) among them."""
    keys = st.tuples(st.sampled_from(["J1", "J10", "J2", "a-b"]),
                     st.sampled_from([1999, 2000, 2010]),
                     st.sampled_from(["AA", "AB", "B"]), st.sampled_from(list(Scheme)))
    cells = []
    for journal, year, country, scheme in draw(st.lists(keys, max_size=30, unique=True)):
        status = draw(st.sampled_from(list(EstimateStatus)))
        ok = status is EstimateStatus.OK
        if ok:
            h = draw(st.floats(0.0, 1.0, exclude_max=True))
        elif status is EstimateStatus.UNBOUNDED_FIELLER:
            h = draw(st.sampled_from([1.0, 3.75, None]))
        else:
            h = None
        est = MnlcsEstimate(
            value=draw(cell_values),
            ci_low=draw(cell_lows) if ok else None,
            ci_high=draw(cell_bounds) if ok else None,
            h=h,
            se_mnlcs=draw(cell_bounds) if ok else None,
            n_group=draw(st.sampled_from([1, 2, 5, 40])),
            n_field=draw(st.sampled_from([1, 300])),
            status=status,
        )
        cells.append(CellRow(journal, year, country, scheme, est))
    return cells


@settings(max_examples=200, deadline=None)
@given(cells_to_write())
def test_cells_csv_columns_equal_row_writer(cells):
    with tempfile.TemporaryDirectory() as d:
        want, got = Path(d) / "rows.csv", Path(d) / "columns.csv"
        assert write_cells_csv(got, grid_of(cells, range(1999, 2011))) == len(cells)
        assert write_cells_csv_oracle(want, cells) == len(cells)
        assert got.read_bytes() == want.read_bytes()


@settings(max_examples=100, deadline=None)
@given(cells_to_write(), st.permutations(CELL_FIELDS), st.integers(2, len(CELL_FIELDS)))
def test_cells_csv_of_chosen_fields_equals_those_columns_of_the_row_writer(cells, order, k):
    # the fields, reordered and fewer, are the columns the writer prints; a
    # row is text joined from two or more fields (csv.writer would quote a
    # lone empty field, which quote_field's rule for rows of several does not)
    fields = order[:k]
    got = io.StringIO()
    assert write_cells_csv(got, grid_of(cells, range(1999, 2011)), fields) == len(cells)
    with tempfile.TemporaryDirectory() as d:
        write_cells_csv_oracle(Path(d) / "rows.csv", cells)
        with open(Path(d) / "rows.csv", encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
    want = io.StringIO()
    columns = [rows[0].index(name) for name in fields]
    csv.writer(want, lineterminator="\n").writerows([[r[c] for c in columns] for r in rows])
    assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("form", ["standard", "printed"])
def test_cells_csv_of_computed_cells_equals_row_writer(tmp_path, form):
    # 25 journals x 10 years x 5 targets (ZZ never writes alone): 1,250
    # cells, more than one slice of the writer
    spec = small_scenario()
    cohorts = generate(ScenarioSpec(**{**vars(spec), "n_journals": 25, "year_end": 2009}))
    settings = CiSettings(form=form, min_group_n=2)
    grid = compute_cells(cohorts, ["BB", "AA", "ZZ"], list(Scheme), settings)
    write_cells_csv(tmp_path / "columns.csv", grid)
    assert write_cells_csv_oracle(tmp_path / "rows.csv", grid_cells(grid)) == 1250
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_config_hash_is_order_insensitive():
    a = {"x": 1, "y": [1, 2], "z": {"a": True}}
    b = {"z": {"a": True}, "y": [1, 2], "x": 1}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({**a, "x": 2})


def mostly(valid, invalid):
    """``valid`` about four times in five, else ``invalid``."""
    return st.tuples(st.integers(0, 4), valid, invalid).map(lambda t: t[2] if t[0] == 0 else t[1])


# Fields mixing valid values with every error kind: bad journal ids (empty,
# a delimiter inside after csv quoting), unparseable and out-of-range years,
# unparseable and negative citations, unknown country tokens next to names,
# mixed case, duplicates and blank tokens.
row_fields = st.tuples(
    mostly(st.sampled_from(["J1", "J2", " J1 ", 'J"1']), st.sampled_from(["", "  ", "J,1", "J;1"])),
    mostly(
        st.sampled_from(["2000", "2001", " 1999", "+2000"]),
        st.sampled_from(["199x", "", "20.5", "999", "3000"]),
    ),
    mostly(st.integers(0, 40).map(str), st.sampled_from(["-1", "-30", "oops", "", "1.5"])),
    st.lists(
        mostly(
            st.sampled_from(["US", "us", "JP", "United Kingdom", "usa", "gb", "", " "]),
            st.just("Atlantis"),
        ),
        max_size=4,
    ).map(";".join),
).map(list)
csv_rows = st.lists(
    mostly(
        row_fields,
        st.lists(st.sampled_from(["J1", "2000", "3", "US"]), max_size=6).filter(
            lambda r: len(r) != 4
        ),
    ),
    min_size=1,
    max_size=40,
)


def ingest_outcome(ingest_fn, path, **kwargs):
    """The cohorts and report, or the error: IngestError by its text and row
    errors, a csv.Error by its type and text."""
    try:
        return ingest_fn(path, **kwargs)
    except IngestError as exc:
        return str(exc), exc.row_errors
    except csv.Error as exc:
        return type(exc), str(exc)


def assert_ingest_matches_oracle(rows, **kwargs):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        with open(path, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            writer.writerows(rows)
        assert ingest_outcome(ingest, path, **kwargs) == ingest_outcome(ingest_oracle, path, **kwargs)


ingest_arguments = dict(
    rows=csv_rows,
    journals=st.sampled_from([None, ["J1"], ["J1", "J2"], []]),
    year_min=st.sampled_from([None, 2000]),
    year_max=st.sampled_from([None, 2000, 2001]),
    max_bad_rows=st.sampled_from([0, 5, 1000, 1000]),
)


@settings(max_examples=150, deadline=None)
@given(**ingest_arguments)
def test_ingest_matches_per_row_oracle(rows, **kwargs):
    assert_ingest_matches_oracle(rows, **kwargs)


# block sizes that cut inside a line, inside a quoted field and below the
# longest line
SMALL_BLOCKS = [1, 5, 16, 64]


@settings(max_examples=150, deadline=None)
@given(block=st.sampled_from(SMALL_BLOCKS), **ingest_arguments)
def test_ingest_in_small_chunks_matches_per_row_oracle(rows, block, **kwargs):
    # a few lines a block: each block with a quote, blank row or other field
    # count goes through csv.reader, the blocks around it take the plain route
    with mock.patch.object(dataio, "_BLOCK", block):
        assert_ingest_matches_oracle(rows, **kwargs)


HEADER_LINE = ",".join(CSV_HEADER) + "\n"
PLAIN_LINES = "J1,2000,5,US\nJ1,2000,oops,US\nJ2,2001,0,\nJ1,2000,7,JP;US\n"
LATER_LINES = "J1,1999,2,DE\nJ1,2000,-1,US\nJ2,2001,3,\nJ1,2000,1,Atlantis\n"
CROSSING_LINES = "J1,2000,5,US\n" * ((dataio._BLOCK - 30) // 13)


def crossing(end: str, rest: str) -> str:
    """Plain lines, then a line whose text ``end`` ends the body's first
    2**15 characters, as it ends reads of 1, 16 and 64 characters, then ``rest``."""
    return CROSSING_LINES + "J" * (dataio._BLOCK - len(CROSSING_LINES) - len(end)) + end + rest


TOKENIZER_FILES = {
    "quoted field in a later chunk": PLAIN_LINES + '"J,1",2000,5,US\nJ1,2000,"4",US\n' + LATER_LINES,
    "quoted newline in a later chunk": PLAIN_LINES + 'J1,2000,5,"US;\nJP"\nJ1,x,1,US\n' + LATER_LINES,
    "CRLF": (PLAIN_LINES + LATER_LINES).replace("\n", "\r\n"),
    "lone CR in a later chunk": PLAIN_LINES + "J1,2000,5,US\rJ1,2000,6,JP\n" + LATER_LINES,
    "no trailing newline": PLAIN_LINES + LATER_LINES.rstrip("\n"),
    "no trailing newline, short last chunk": PLAIN_LINES + "J1,2000,9,US",
    "blank lines inside and between chunks": "\n" + PLAIN_LINES[:26] + "\n\n" + PLAIN_LINES[26:]
    + "\n" + LATER_LINES + "\n",
    "field count in a later chunk": PLAIN_LINES + "J1,2000,5,US,JP\nJ1,2000\n" + LATER_LINES,
    "field counts that balance in a later chunk": PLAIN_LINES + "J1,2000,5,US,JP\nJ1,2000,5\n"
    + LATER_LINES,
    "NUL in a later chunk": PLAIN_LINES + "J1,2000,5,U\0S\n" + LATER_LINES,
    "field over the csv limit in a later chunk": PLAIN_LINES + "J1,2000,5,"
    + "US;" * (csv.field_size_limit() // 3 + 1) + "\n" + LATER_LINES,
    "count beyond int64": PLAIN_LINES + "J1,2000,99999999999999999999,US\n",
    # two quotes that open on one line and close on the next; 1-character
    # reads end a block on both opening lines, 5-character reads on the first
    "quote opening on a chunk's last line": 'J1,2000,5,US\nJ1,2000,oops,US\nJ1,2000,5,"US;\nJP"\n'
    + 'J2,2001,0,\nJ1,2000,7,JP;US\nJ2,2001,3,\nJ1,2001,4,"DE;\nUS"\n' + LATER_LINES,
    "quoted field spanning two chunks": PLAIN_LINES[:13] + 'J1,2000,5,"US;\nJP;\nDE;\nFR;\nGB"\n'
    + PLAIN_LINES[13:] + LATER_LINES,
    "quoted first chunk, then plain chunks": '"J1",2000,5,US\n' + PLAIN_LINES + LATER_LINES,
    "stray quotes inside unquoted fields": PLAIN_LINES + 'J1,2000,5,U"S\nJ"1,2000,6,JP;US"\n'
    + LATER_LINES + 'J1,2000,"7",US\n',
    "quote left open at EOF": PLAIN_LINES + 'J1,2000,5,"US;\n' + LATER_LINES,
    "only CR line ends": (PLAIN_LINES + LATER_LINES).replace("\n", "\r"),
    "only CR line ends, a blank line and a quoted CR": (
        PLAIN_LINES + "\n" + 'J1,2000,5,"US;\rJP"\n' + LATER_LINES
    ).replace("\n", "\r"),
    # three blocks of the default size and thousands of the small ones
    "line longer than several blocks": PLAIN_LINES + "J1,2000,5,"
    + "US;" * (dataio._BLOCK + 7) + "JP\n" + LATER_LINES,
    # a cut between CR and LF would read a blank record and number every
    # later line one too high
    "CRLF across two blocks": crossing(",2000,6,JP\r", "\n" + LATER_LINES.replace("\n", "\r\n")),
    # csv.reader reads on into the next block for one line and leaves the
    # rest of that block to the plain route
    "quote open across two blocks": crossing(',2000,6,"JP;\n', 'US"\n' + LATER_LINES),
    # str.splitlines breaks at these, csv.reader and file iteration do not
    "other line breaks inside fields": PLAIN_LINES + "J\x0b1,2000,5,US\x85\n"
    + '"J1",2000,6,JP\u2028\nJ\x1c1,2001, \x0c7,US;\x1cDE\n' + LATER_LINES,
    "other line breaks inside plain fields": "J\x0b1,2000,5,US\x85\n"
    + "J\u20281,2001,\x0c7,US\x1c\n" + PLAIN_LINES,
    "counts beyond int64 in later cohorts": PLAIN_LINES + "J1,2001,3,US\nJ2,2002,4,US\n"
    + "J2,2002,99999999999999999999,US\n",
    "counts beyond int64 in dropped rows": PLAIN_LINES + "J1,x,99999999999999999999,US\n"
    + "J1,2000,-99999999999999999999,US\n" + LATER_LINES,
    # csv.reader reads on line by line through thousands of lines, and the
    # plain route takes over after the closing quote
    "quoted field longer than a default block": PLAIN_LINES + 'J1,2000,5,"' + "US;\n" * 9000
    + 'JP"\n' + PLAIN_LINES + LATER_LINES,
}


@pytest.mark.parametrize("block", SMALL_BLOCKS + [dataio._BLOCK])
@pytest.mark.parametrize("max_bad_rows", [0, 100])
@pytest.mark.parametrize("name", TOKENIZER_FILES)
def test_tokenizer_routes_match_per_row_oracle(tmp_path, monkeypatch, name, max_bad_rows, block):
    monkeypatch.setattr(dataio, "_BLOCK", block)
    path = tmp_path / "data.csv"
    path.write_bytes((HEADER_LINE + TOKENIZER_FILES[name]).encode("utf-8"))
    got = ingest_outcome(ingest, path, max_bad_rows=max_bad_rows)
    assert got == ingest_outcome(ingest_oracle, path, max_bad_rows=max_bad_rows)


def test_crossing_cases_cross_the_first_block_end():
    end = dataio._BLOCK
    assert TOKENIZER_FILES["CRLF across two blocks"][end - 1:end + 1] == "\r\n"
    assert TOKENIZER_FILES["quote open across two blocks"][end - 4:end + 4] == 'JP;\nUS"\n'


@pytest.mark.parametrize("block", SMALL_BLOCKS)
@pytest.mark.parametrize("name", TOKENIZER_FILES)
def test_blocks_hold_whole_lines_within_the_bound(monkeypatch, name, block):
    monkeypatch.setattr(dataio, "_BLOCK", block)
    body = TOKENIZER_FILES[name]
    blocks = list(dataio._blocks(io.StringIO(body, newline="")))
    assert "".join(blocks) == body
    longest = max(map(len, io.StringIO(body, newline="")))
    assert all(len(b) <= block + longest for b in blocks)
    for a, b in zip(blocks, blocks[1:]):
        assert a.endswith(("\n", "\r")) and not (a.endswith("\r") and b.startswith("\n"))


@pytest.mark.parametrize("block", SMALL_BLOCKS + [dataio._BLOCK])
def test_line_numbers_after_a_quoted_newline(tmp_path, monkeypatch, block):
    # the quoted newline makes lines 6-7 one record, whichever block it falls
    # in or across, so later rows are numbered by record, as csv.reader counts
    monkeypatch.setattr(dataio, "_BLOCK", block)
    path = tmp_path / "data.csv"
    path.write_text(HEADER_LINE + TOKENIZER_FILES["quoted newline in a later chunk"], encoding="utf-8")
    cohorts, report = ingest(path, max_bad_rows=100)
    assert report.row_errors == [
        (3, "unparseable citations: 'oops'"),
        (7, "unparseable year: 'x'"),
        (9, "citations must be >= 0, got -1"),
        (11, "unrecognised country token: 'Atlantis'"),
    ]
    assert (report.n_rows, report.n_kept) == (10, 6)
    assert [(c.journal_id, c.year, c.size) for c in cohorts] == [
        ("J1", 1999, 1), ("J1", 2000, 3), ("J2", 2001, 2),
    ]
    assert cohorts[1].sets[cohorts[1].codes[2]] == {"US", "JP"}


@pytest.mark.parametrize("block", [5, 16, 64])
def test_only_the_quoted_chunk_goes_through_csv_reader(tmp_path, monkeypatch, block):
    # a quote on line 2: csv.reader reads the header and the first block, the
    # first ``block`` characters of the body and the rest of the line they end
    # in (a whole extra line when they end on a newline), and later blocks
    # take the plain route
    monkeypatch.setattr(dataio, "_BLOCK", block)
    path = tmp_path / "data.csv"
    body = '"J0"' + "".join(f"J{i % 3},{2000 + i % 4},{i},US\n" for i in range(16))[2:]
    path.write_text(HEADER_LINE + body, encoding="utf-8")
    first = body[:body.index("\n", block) + 1]
    first_rows = list(csv.reader(io.StringIO(first)))
    assert 1 <= len(first_rows) < 16
    read, reader = [], csv.reader

    class Reader:
        def __init__(self, lines):
            self.reader = reader(lines)

        line_num = property(lambda self: self.reader.line_num)

        def __iter__(self):
            return self

        def __next__(self):
            read.append(next(self.reader))
            return read[-1]

    monkeypatch.setattr(csv, "reader", Reader)
    cohorts, report = ingest(path)
    assert read == [CSV_HEADER, *first_rows]
    assert first_rows[0] == ["J0", "2000", "0", "US"]
    assert (report.n_rows, report.n_kept) == (16, 16)
    assert sum(c.size for c in cohorts) == 16


def test_ingest_reports_year_error_before_journal_error(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "journal_id,year,citations,countries\n"
        '"J,1",199x,5,US\n'
        '"J,1",2000,oops,US\n'
        '"J,1",2000,-5,US\n'
        "J1,2000,-5,Atlantis\n",
        encoding="utf-8",
    )
    _, report = ingest(path, max_bad_rows=4)
    assert report.row_errors == [
        (2, "unparseable year: '199x'"),
        (3, "unparseable citations: 'oops'"),
        (4, "bad journal_id: 'J,1'"),
        (5, "unrecognised country token: 'Atlantis'"),
    ]


def test_ingest_memory_stays_columnar(tmp_path):
    # about 20k rows; the columnar ingest peaks near 0.73 MB here, the
    # per-row CitationRecord route it replaced near 8.6 MB
    spec = ScenarioSpec(
        n_journals=4,
        year_start=2000,
        year_end=2004,
        field_size_per_year=1000,
        groups=tuple(GroupSpec(c, 0.08, 1.0, 1.0) for c in ("AA", "BB", "CC", "DD", "EE")),
        collab_fraction=0.3,
        rng_seed=1,
    )
    path = tmp_path / "data.csv"
    assert write_records_csv(path, generate(spec)) == 20_000
    tracemalloc.start()
    try:
        cohorts, _ = ingest(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cohorts) == 20
    assert peak < 1.5 * 2**20
