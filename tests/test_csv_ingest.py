"""Beam CSV ingestion: the tokenizer path against a per-cell loader.

``load_csv`` reads the data lines with NumPy's C tokenizer and reads them
again line by line, with ``int`` and ``float``, only when the tokenizer
refuses a file or a line fails a check.  The oracle here is a
test-local copy of the loader that parses every cell with Python's ``int``
and ``float``: for every file, both must load the same bytes or raise the
same ``IngestionError`` message.
"""

import math
import string
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedbeam.data
from fedbeam.data import (
    CATEGORIES,
    CSV_HEADER,
    SHARE_SUM_TOLERANCE,
    BeamSeries,
    default_profiles,
    generate_synthetic,
    load_csv,
    render_csv,
)
from fedbeam.errors import IngestionError

# --- The per-cell loader, kept here as the oracle -------------------------

_VALUE_COLUMNS = ("downlink", "uplink", *CATEGORIES)


def _reference_row_error(path, line_no, fields, expected_hour):
    where = f"{path} line {line_no}"
    if len(fields) != 7:
        return f"{where}: expected 7 columns, got {len(fields)}"
    try:
        hour = int(fields[0])
    except ValueError:
        return f"{where}: hour is not an integer: {fields[0]!r}"
    if hour != expected_hour:
        return (
            f"{where}: hour {hour} breaks the 0-based consecutive sequence "
            f"(expected {expected_hour})"
        )
    values = []
    for column, raw in zip(_VALUE_COLUMNS, fields[1:]):
        if len(values) == 2 and (values[0] < 0 or values[1] < 0):
            return f"{where}: volumes must be non-negative"
        try:
            value = float(raw)
        except ValueError:
            return f"{where}: {column} is not a number: {raw!r}"
        if not math.isfinite(value):
            return f"{where}: {column} is not finite: {raw!r}"
        values.append(value)
    shares = np.array(values[2:])
    if np.any(shares < -SHARE_SUM_TOLERANCE) or np.any(shares > 1 + SHARE_SUM_TOLERANCE):
        return f"{where}: shares must lie in [0, 1], got {shares.tolist()}"
    total = float(np.clip(shares, 0.0, 1.0).sum())
    return f"{where}: shares sum to {total:.6f}, outside 1 +/- {SHARE_SUM_TOLERANCE}"


def _reference_parsed(convert, raw, fallback):
    try:
        return convert(raw)
    except ValueError:
        return fallback


def reference_load_csv(path, beam_id=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise IngestionError(f"{path}: file is empty")
    if lines[0].strip() != CSV_HEADER:
        raise IngestionError(
            f"{path}: header must be exactly {CSV_HEADER!r}, got {lines[0]!r}"
        )
    body = [
        (line_no, line.split(","))
        for line_no, line in enumerate(lines[1:], start=2)
        if line.strip()
    ]
    if not body:
        raise IngestionError(f"{path}: no data rows")
    rows = [fields if len(fields) == 7 else [""] * 7 for _, fields in body]
    values = np.array(
        [[_reference_parsed(float, raw, math.nan) for raw in row[1:]] for row in rows]
    )
    volumes, shares = values[:, :2], values[:, 2:]
    clipped = np.clip(shares, 0.0, 1.0)
    totals = clipped.sum(axis=1)
    bad = (
        np.array([_reference_parsed(int, row[0], None) != k for k, row in enumerate(rows)])
        | ~np.isfinite(values).all(axis=1)
        | (volumes < 0).any(axis=1)
        | ((shares < -SHARE_SUM_TOLERANCE) | (shares > 1 + SHARE_SUM_TOLERANCE)).any(axis=1)
        | (np.abs(totals - 1.0) > SHARE_SUM_TOLERANCE)
    )
    if bad.any():
        k = int(np.argmax(bad))
        line_no, fields = body[k]
        raise IngestionError(_reference_row_error(path, line_no, fields, k))
    name = beam_id if beam_id is not None else path
    return BeamSeries(name, volumes.copy(), clipped / totals[:, None])


def outcome(loader, path):
    """What a loader makes of a file: its arrays' bytes, or its message.

    Any exception other than ``IngestionError`` propagates and fails the
    test.
    """
    try:
        series = loader(str(path), beam_id="beam")
    except IngestionError as exc:
        return ("rejected", str(exc))
    return (
        "loaded",
        series.hourly_volumes.shape,
        series.hourly_volumes.tobytes(),
        series.hourly_shares.shape,
        series.hourly_shares.tobytes(),
    )


# --- Explicit cases -------------------------------------------------------

GOOD_ROW = "5.0,2.0,0.25,0.25,0.25,0.25"

# The characters str.splitlines() breaks at besides "\n", "\r" and "\r\n".
EXTRA_LINE_BREAKS = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def test_a_form_feed_inside_a_row_splits_it(tmp_path):
    path = tmp_path / "beam.csv"
    path.write_text(f"{CSV_HEADER}\n0,155.0\f,24.3,0.25,0.25,0.25,0.25\n", encoding="utf-8")
    with pytest.raises(IngestionError) as err:
        load_csv(str(path))
    assert str(err.value) == f"{path} line 2: expected 7 columns, got 2"


@pytest.mark.parametrize(
    "brk", EXTRA_LINE_BREAKS, ids=[f"U+{ord(c):04X}" for c in EXTRA_LINE_BREAKS]
)
def test_every_line_break_of_splitlines_splits_a_row(tmp_path, brk):
    path = tmp_path / "beam.csv"
    path.write_text(f"{CSV_HEADER}\n0,155.0{brk},24.3,0.25,0.25,0.25,0.25\n", encoding="utf-8")
    got = outcome(load_csv, path)
    assert got == outcome(reference_load_csv, path)
    assert got[0] == "rejected"


def write_protocol_beam(path):
    series = generate_synthetic(7, 743, default_profiles(1)[0])
    path.write_text(render_csv(series), encoding="utf-8")


def test_a_clean_file_loads_without_the_per_cell_parse(tmp_path, monkeypatch):
    path = tmp_path / "beam.csv"
    write_protocol_beam(path)
    expected = outcome(reference_load_csv, path)

    def refuse(*args):
        raise AssertionError("the line reader ran on a clean file")

    monkeypatch.setattr(fedbeam.data, "_row_values", refuse)
    assert outcome(load_csv, path) == expected
    assert expected[1] == (743, 2)


def test_python_only_spellings_load_through_the_per_cell_parse(tmp_path, monkeypatch):
    path = tmp_path / "beam.csv"
    rows = [f"{t},{GOOD_ROW}" for t in range(7)] + [" 7,1_000,1e3,0.25,0.25,0.25,0.25"]
    path.write_text("\n".join([CSV_HEADER, *rows]) + "\n", encoding="utf-8")
    calls = []
    row_values = fedbeam.data._row_values

    def counted(*args):
        calls.append(args[1])
        return row_values(*args)

    monkeypatch.setattr(fedbeam.data, "_row_values", counted)
    assert outcome(load_csv, path) == outcome(reference_load_csv, path)
    assert calls == list(range(2, 10))
    assert load_csv(str(path)).hourly_volumes[7].tolist() == [1000.0, 1000.0]


def test_an_hour_read_through_a_float_falls_back(tmp_path, monkeypatch):
    """NumPy 1.x reads an hour of "1.0" as 1 with a DeprecationWarning."""
    path = tmp_path / "beam.csv"
    path.write_text(f"{CSV_HEADER}\n0,{GOOD_ROW}\n1.0,{GOOD_ROW}\n", encoding="utf-8")
    loadtxt = np.loadtxt

    def numpy_1x_loadtxt(lines, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return loadtxt([line.replace("1.0,", "1,", 1) for line in lines], **kwargs)

    monkeypatch.setattr(np, "loadtxt", numpy_1x_loadtxt)
    with pytest.raises(IngestionError) as err:
        load_csv(str(path))
    assert str(err.value) == f"{path} line 3: hour is not an integer: '1.0'"


# --- Property: the tokenizer path agrees with the per-cell loader ---------

LINE_ENDS = ("\n", "\r\n", "\r")
PADDING = (" ", "\t", "\xa0")
BLANK_LINES = ("", " ", "\t", "\xa0", " \t ")
FULL_WIDTH = str.maketrans(string.digits, "".join(map(chr, range(0xFF10, 0xFF1A))))
REPLACEMENTS = (
    "nan", "-nan", "inf", "-inf", "1e400", "-1e400", "", "x", "1.0", "1e3", "-0",
    "+0", "0x1p3", "1_0", "99999999999999999999", "-1.0", "0.9", "1.2", ".5", "5.",
)
CELL_MUTATIONS = ("pad", "underscore", "full_width", "sign", "zeros", "replace",
                  "drop", "extra", "hour")
LINE_MUTATIONS = ("blank", "break")


def mutate_cells(rows, kind, i, j, pick):
    row = rows[i]
    j %= len(row)
    cell = row[j]
    if kind == "pad":
        row[j] = PADDING[pick % 3] + cell + PADDING[pick // 3 % 3]
    elif kind == "underscore":
        spots = [p for p in range(1, len(cell)) if cell[p - 1].isdigit() and cell[p].isdigit()]
        if spots:
            p = spots[pick % len(spots)]
            row[j] = cell[:p] + "_" + cell[p:]
    elif kind == "full_width":
        row[j] = cell.translate(FULL_WIDTH)
    elif kind == "sign":
        row[j] = "+-"[pick % 2] + cell
    elif kind == "zeros":
        row[j] = "0" * (1 + pick % 2) + cell
    elif kind == "replace":
        row[j] = REPLACEMENTS[pick % len(REPLACEMENTS)]
    elif kind == "drop":
        del row[j]
    elif kind == "extra":
        row.insert(j, "0.0")
    elif kind == "hour":
        row[0] = str(i + pick % 5 - 2)


def mutate_lines(lines, kind, i, j, pick):
    if kind == "blank":
        lines.insert(i % (len(lines) + 1), BLANK_LINES[pick % len(BLANK_LINES)])
    elif kind == "break":
        i %= len(lines)
        p = j % (len(lines[i]) + 1)
        lines[i] = lines[i][:p] + EXTRA_LINE_BREAKS[pick % 8] + lines[i][p:]


volume = st.floats(0.0, 1e4)
weight = st.floats(0.01, 1.0)
valid_rows = st.lists(
    st.tuples(volume, volume, weight, weight, weight, weight), min_size=1, max_size=6
)
# (kind, (row or line index, cell or character index, choice)), taken modulo sizes.
where = st.tuples(st.integers(0, 99), st.integers(0, 99), st.integers(0, 99))
cell_mutations = st.lists(st.tuples(st.sampled_from(CELL_MUTATIONS), where), max_size=3)
line_mutations = st.lists(st.tuples(st.sampled_from(LINE_MUTATIONS), where), max_size=2)


@st.composite
def beam_texts(draw):
    """Valid rows, then a few cell and line mutations, as one file's text."""
    rows = []
    for t, (dl, ul, *weights) in enumerate(draw(valid_rows)):
        shares = [w / sum(weights) for w in weights]
        rows.append([str(t), repr(dl), repr(ul), *map(repr, shares)])
    for kind, (i, j, pick) in draw(cell_mutations):
        mutate_cells(rows, kind, i % len(rows), j, pick)
    lines = [",".join(row) for row in rows]
    for kind, (i, j, pick) in draw(line_mutations):
        mutate_lines(lines, kind, i, j, pick)
    end = draw(st.sampled_from(LINE_ENDS))
    return end.join([CSV_HEADER, *lines]) + draw(st.sampled_from(("", end)))


def test_loader_matches_the_per_cell_loader_on_mutated_files(tmp_path_factory, monkeypatch):
    path = tmp_path_factory.mktemp("ingest") / "beam.csv"
    seen = Counter()
    read_every_line = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        table = loadtxt(*args, **kwargs)
        read_every_line.append(True)
        return table

    # The reference parses with int and float alone, so only load_csv calls it.
    monkeypatch.setattr(np, "loadtxt", counted)

    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(beam_texts())
    def check(text):
        path.write_bytes(text.encode("utf-8"))
        expected = outcome(reference_load_csv, path)
        read_every_line.clear()
        assert outcome(load_csv, path) == expected
        seen[expected[0], bool(read_every_line)] += 1

    check()
    # Files the tokenizer reads whole and files it refuses are both loaded
    # and rejected in the sample.
    for key in [("loaded", True), ("loaded", False), ("rejected", True), ("rejected", False)]:
        assert seen[key] >= 10, dict(seen)
