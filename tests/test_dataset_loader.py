"""Differential test of `fitting.load_dataset` against the record loader it
replaced.

`record_loader` below is a copy of that loader's row loop: a
`csv.DictReader` pass that converts each row's `range_m` and `path_gain_db`
cells with float() and checks them as one record, in the order the record
did.  On any CSV the columnar `load_dataset` must return the same arrays or
raise the same `DatasetError` message.  The one intended difference is the
line number: the record loader counted non-blank rows from 2, so after a
blank line it named the wrong line; `load_dataset` names the physical line.

`load_dataset` returns what `read_records`, the reader `pathgain fit` calls
without numpy, returns, and checks each record once, as it reads it.
"""

import csv
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathgain import fitting
from pathgain.fitting import (CSV_REQUIRED, PATH_GAIN_SANITY_DB, DatasetError,
                              load_dataset, read_records)

HOSTILE_CELLS = ["abc", "", "nan", "NaN", "inf", "-inf", "+inf", "1e400", "-0",
                 "0", "-1", "25", "20", "1_0", " 5 ", "10", "-60.5", "19.99",
                 "5e-324", "-1e400"]
COLUMNS = list(CSV_REQUIRED) + ["street", "flag", "component_direct_db"]


def _check_record(range_m: float, path_gain_db: float):
    if not math.isfinite(range_m) or not math.isfinite(path_gain_db):
        raise DatasetError("record fields must be finite")
    if range_m <= 0.0:
        raise DatasetError(f"range must be positive, got {range_m}")
    if path_gain_db >= PATH_GAIN_SANITY_DB:
        raise DatasetError(f"path gain {path_gain_db} dB exceeds sanity bound")


def record_loader(path) -> tuple[np.ndarray, np.ndarray]:
    """The replaced loader: one checked record per `csv.DictReader` row."""
    ranges, gains = [], []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise DatasetError(f"{path}: empty file")
        missing = [c for c in CSV_REQUIRED if c not in reader.fieldnames]
        if missing:
            raise DatasetError(f"{path}: missing column(s) {', '.join(missing)}")
        for line_no, row in enumerate(reader, start=2):
            try:
                range_m = float(row["range_m"])
                path_gain_db = float(row["path_gain_db"])
                _check_record(range_m, path_gain_db)
            except (TypeError, ValueError) as exc:
                raise DatasetError(f"{path}: line {line_no}: {exc}") from exc
            ranges.append(range_m)
            gains.append(path_gain_db)
    if not ranges:
        raise DatasetError(f"{path}: no data rows")
    return np.array(ranges), np.array(gains)


def columnar_loader(path) -> tuple[np.ndarray, np.ndarray]:
    ranges, gains = load_dataset(path, 2e9)
    return np.array(ranges), np.array(gains)


def list_reader(path) -> tuple[np.ndarray, np.ndarray]:
    ranges, gains = read_records(path)
    assert all(type(v) is float for v in ranges + gains)
    return np.array(ranges), np.array(gains)


def _outcome(loader, path):
    """Bytes of both arrays (so -0.0 differs from 0.0), or the message."""
    try:
        ranges, gains = loader(path)
    except DatasetError as exc:
        return str(exc)
    return ranges.tobytes(), gains.tobytes()


def _physical_lines(message, lines: list[str]):
    """A record-loader message with its line number, a count of the non-blank
    rows from 2, replaced by the physical line of that row."""
    match = re.fullmatch(r"(.*): line (\d+): (.*)", message, flags=re.DOTALL)
    if not match:
        return message
    data_lines = [n for n, line in enumerate(lines[1:], start=2) if line]
    physical = data_lines[int(match[2]) - 2]
    return f"{match[1]}: line {physical}: {match[3]}"


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("loader") / "data.csv"


cells = st.one_of(st.sampled_from(HOSTILE_CELLS),
                  st.floats(allow_nan=True, allow_infinity=True).map(repr))
rows = st.lists(cells, min_size=0, max_size=6)  # short, blank and extra-column rows


@settings(max_examples=400, deadline=None)
@given(header=st.lists(st.sampled_from(COLUMNS), min_size=0, max_size=5),
       body=st.lists(rows, max_size=8), required_first=st.booleans(),
       trailing_newline=st.booleans())
def test_matches_record_loader(csv_path, header, body, required_first,
                               trailing_newline):
    if required_first:
        header = list(CSV_REQUIRED) + header
    lines = [",".join(header)] + [",".join(row) for row in body]
    csv_path.write_text("\n".join(lines) + ("\n" if trailing_newline else ""),
                        encoding="utf-8")
    expected = _outcome(record_loader, csv_path)
    if isinstance(expected, str):
        expected = _physical_lines(expected, lines)
    assert _outcome(columnar_loader, csv_path) == expected
    assert _outcome(list_reader, csv_path) == expected


# (data rows after the header, line-2 record `10,-60` included) -> message
# after "<path>: line 3: ", as the record loader printed it
RECORD_LOADER_MESSAGES = {
    "10,-60\nabc,-61\n": "could not convert string to float: 'abc'",
    "10,-60\n10,\n": "could not convert string to float: ''",
    "10,-60\n10\n": "float() argument must be a string or a real number, "
                    "not 'NoneType'",
    "10,-60\nnan,-61\n": "record fields must be finite",
    "10,-60\n1e400,-61\n": "record fields must be finite",
    "10,-60\n-1,-61\n": "range must be positive, got -1.0",
    "10,-60\n10,25\n": "path gain 25.0 dB exceeds sanity bound",
}


@pytest.mark.parametrize("loader", [record_loader, columnar_loader, list_reader])
@pytest.mark.parametrize("body", sorted(RECORD_LOADER_MESSAGES))
def test_record_loader_messages(tmp_path, loader, body):
    path = tmp_path / "data.csv"
    path.write_text("range_m,path_gain_db\n" + body, encoding="utf-8")
    with pytest.raises(DatasetError) as info:
        loader(path)
    assert str(info.value) == f"{path}: line 3: {RECORD_LOADER_MESSAGES[body]}"


def test_blank_line_moves_the_line_number(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("range_m,path_gain_db\n10,-60\n\n10,abc", encoding="utf-8")
    message = "could not convert string to float: 'abc'"
    with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}: line 3: "):
        record_loader(path)
    with pytest.raises(DatasetError) as info:
        load_dataset(path, 2e9)
    assert str(info.value) == f"{path}: line 4: {message}"


def test_load_dataset_checks_each_record_once(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_text("range_m,path_gain_db\n10,-60\n20,-66.5\n", encoding="utf-8")
    calls = []

    def counted(ranges, gains):
        calls.append(len(ranges))
        return first_invalid(ranges, gains)

    first_invalid = fitting._first_invalid
    monkeypatch.setattr(fitting, "_first_invalid", counted)
    records = load_dataset(path, 28e9)
    assert calls == [2]
    assert records == read_records(path) == ([10.0, 20.0], [-60.0, -66.5])
    assert calls == [2, 2]


def test_byte_order_mark_before_the_header_is_read(tmp_path):
    # as Excel saves a UTF-8 CSV
    path = tmp_path / "data.csv"
    path.write_text("range_m,path_gain_db\n10,-60\n100,-80\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbfrange_m")
    assert read_records(path) == ([10.0, 100.0], [-60.0, -80.0])


def test_earlier_bad_record_is_named_before_a_later_bad_cell(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("range_m,path_gain_db\n-1,-60\nabc,-61\n", encoding="utf-8")
    with pytest.raises(DatasetError) as info:
        load_dataset(path, 2e9)
    assert str(info.value) == f"{path}: line 2: range must be positive, got -1.0"


@pytest.mark.parametrize("text, line, message", [
    ("10,-60\n\n10,abc", 4, "could not convert string to float: 'abc'"),
    ("-1,-60\nabc,-61\n", 2, "range must be positive, got -1.0")])
def test_reader_names_the_line_load_dataset_names(tmp_path, text, line, message):
    path = tmp_path / "data.csv"
    path.write_text("range_m,path_gain_db\n" + text, encoding="utf-8")
    for loader in (columnar_loader, list_reader):
        with pytest.raises(DatasetError) as info:
            loader(path)
        assert str(info.value) == f"{path}: line {line}: {message}"
