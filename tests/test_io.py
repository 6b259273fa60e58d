"""CSV ingestion and emission."""

import csv
import io as text_io
import math
import os
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panelbreak import io
from panelbreak.exceptions import DuplicateObservation, InputError, NonFiniteValue, RaggedRow, UnbalancedPanel
from panelbreak.io import (
    load_panel,
    read_common_rows,
    read_keyvalue_config,
    read_panel_rows,
    write_panel_csv,
    write_text_atomic,
)

from conftest import random_panel, reference_build_panel, reference_read_rows


def write_csv(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestReadPanel:
    def test_basic_load(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(
            path,
            [
                "unit,time,y,x1,x2",
                "a,1,1.0,0.1,0.2",
                "a,2,2.0,0.3,0.4",
                "b,1,3.0,0.5,0.6",
                "b,2,4.0,0.7,0.8",
            ],
        )
        panel = load_panel(path, y="y", x_names=["x1", "x2"], intercept=False)
        assert panel.n_units == 2 and panel.n_periods == 2
        assert panel.y[1, 0] == 3.0
        assert panel.x[0, 1, 1] == 0.4

    def test_column_order_free(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(
            path,
            [
                "x1,y,unit,time",
                "0.1,1.0,a,1",
                "0.2,2.0,a,2",
                "0.3,3.0,b,1",
                "0.4,4.0,b,2",
            ],
        )
        panel = load_panel(path, y="y", x_names=["x1"], intercept=False)
        assert panel.x[1, 1, 0] == 0.4

    def test_missing_column(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, ["unit,time,y", "a,1,1.0"])
        with pytest.raises(InputError):
            read_panel_rows(path, y="y", x_names=["x1"])

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, ["unit,time,y,x1", "a,1,1.0,0.5", "a,2,1.0"])
        with pytest.raises(RaggedRow):
            read_panel_rows(path, y="y", x_names=["x1"])

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, ["unit,time,y,x1", "a,1,oops,0.5"])
        with pytest.raises(InputError):
            read_panel_rows(path, y="y", x_names=["x1"])

    def test_bad_float_after_blank_line_names_its_file_line(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, ["unit,time,y,x1", "a,1,1.0,0.5", "", "a,2,1.0,0.5", "b,1,oops,0.5"])
        with pytest.raises(InputError, match=r"p\.csv:5: could not convert string to float: 'oops'"):
            read_panel_rows(path, y="y", x_names=["x1"])

    def test_first_bad_line_wins(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, ["unit,time,y,x1", "a,1,1.0,0.5", "a,2,1.0,bad", "", "b,1,1.0"])
        with pytest.raises(InputError, match=r"p\.csv:3: .*'bad'"):
            read_panel_rows(path, y="y", x_names=["x1"])
        write_csv(path, ["unit,time,y,x1", "", "a,2,1.0", "b,1,1.0,bad"])
        with pytest.raises(RaggedRow, match=r"p\.csv:3: row has 3 fields"):
            read_panel_rows(path, y="y", x_names=["x1"])

    def test_rows_parse_like_python(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, ["unit,time,y,x1", "a,1,1_000, 2.5 ", "a,2.0,-inf,1e3", "b,q3,nan,0", "", "b,1.5,0,0"])
        rows = read_panel_rows(path, y="y", x_names=["x1"])
        assert rows[:3] == [("a", 1, 1000.0, 2.5), ("a", 2, -math.inf, 1000.0), ("b", "q3", rows[2][2], 0.0)]
        assert math.isnan(rows[2][2]) and rows[3] == ("b", 1.5, 0.0, 0.0)
        assert type(rows[1][1]) is int

    def test_nan_times_never_form_one_period(self, tmp_path):
        # NaN equals nothing, so it cannot label a period: the reader names its line.
        path = tmp_path / "p.csv"
        write_csv(path, ["unit,time,y,x1", "a,1,1.0,0.5", "a,NaN,1.0,0.5", "b,nan,1.0,0.5", "b,1,2.0,0.7"])
        with pytest.raises(InputError, match=r"p\.csv:3: time label 'NaN' is not a number"):
            load_panel(path, y="y", x_names=["x1"])
        write_csv(path, ["time,trend", "1,0.0", "nan,1.0"])
        with pytest.raises(InputError, match=r"p\.csv:3: time label 'nan'"):
            read_common_rows(path)

    def test_quoted_newline_keeps_file_lines(self, tmp_path):
        # The quoted unit spans lines 2-3, so the bad float sits on file line 4.
        path = tmp_path / "p.csv"
        path.write_text('unit,time,y,x1\n"a\nb",1,1.0,0.5\n"a\nb",2,oops,0.5\n', encoding="utf-8")
        with pytest.raises(InputError, match=r"p\.csv:4: .*'oops'"):
            read_panel_rows(path, y="y", x_names=["x1"])
        path.write_text('unit,time,y,x1\n"a\nb",1,1.0,0.5\n\n"a\n\nb",2,1.0\n', encoding="utf-8")
        with pytest.raises(RaggedRow, match=r"p\.csv:5: row has 3 fields"):
            read_panel_rows(path, y="y", x_names=["x1"])

    def test_common_rows_errors_name_their_line(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["time,trend", "1,0.0", "", "2,x"])
        with pytest.raises(InputError, match=r"d\.csv:4: "):
            read_common_rows(path)
        write_csv(path, ["time,trend,q", "1,0.0,1", "2,1.0"])
        with pytest.raises(RaggedRow, match=r"d\.csv:3: row has 2 fields"):
            read_common_rows(path)
        write_csv(path, ["time,trend", "1,0.0", "2,1.5"])
        assert read_common_rows(path) == [(1, 0.0), (2, 1.5)]

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" export starts each file with a byte-order mark.
        rows = ["unit,time,y,x1", "a,1,1.0,0.1", "a,2,2.0,0.2", "b,1,3.0,0.3", "b,2,4.0,0.4"]
        common = ["time,trend", "1,0.0", "2,1.0"]
        panels = []
        for bom in ("", "\ufeff"):
            write_csv(tmp_path / "p.csv", [bom + rows[0], *rows[1:]])
            write_csv(tmp_path / "d.csv", [bom + common[0], *common[1:]])
            panels.append(load_panel(tmp_path / "p.csv", y="y", x_names=["x1"], common_path=tmp_path / "d.csv"))
        plain, marked = panels
        for name in ("y", "x", "d", "unit_labels", "time_labels"):
            assert np.array_equal(getattr(marked, name), getattr(plain, name))
        write_csv(tmp_path / "p.csv", ["\ufeffunit,time,y,x1", "a,1,1.0,0.5", "a,2,oops,0.5"])
        with pytest.raises(InputError, match=r"p\.csv:3: .*'oops'"):
            read_panel_rows(tmp_path / "p.csv", y="y", x_names=["x1"])

    def test_blank_lines_and_no_records_warn_nothing(self, tmp_path):
        path = tmp_path / "p.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_csv(path, ["unit,time,y,x1", "", "a,1,1.0,0.5", "", "a,2,2.0,0.5"])
            assert len(read_panel_rows(path, y="y", x_names=["x1"])) == 2
            write_csv(path, ["unit,time,y,x1"])
            assert len(read_panel_rows(path, y="y", x_names=["x1"])) == 0

    def test_undecodable_file_is_an_input_error(self, tmp_path):
        # A Latin-1 export: the unit label \xe9 is no UTF-8.
        path = tmp_path / "p.csv"
        path.write_bytes("unit,time,y,x1\n\xe9,1,1.0,0.5\n\xe9,2,1.0,0.5\n".encode("latin-1"))
        with pytest.raises(InputError, match=r"p\.csv: not UTF-8 text \(invalid continuation byte\)"):
            load_panel(path, y="y", x_names=["x1"])
        path = tmp_path / "d.csv"
        path.write_bytes("time,trend\n1,0.5\n2,\xb5\n".encode("latin-1"))
        with pytest.raises(InputError, match=r"d\.csv: not UTF-8 text"):
            read_common_rows(path)

    def test_field_over_the_csv_limit_is_an_input_error(self, tmp_path):
        long = "u" * (csv.field_size_limit() + 1)
        path = tmp_path / "p.csv"
        write_csv(path, ["unit,time,y,x1", "a,1,1.0,0.5", f"{long},1,1.0,0.5"])
        with pytest.raises(InputError, match=r"p\.csv:3: field larger than field limit"):
            load_panel(path, y="y", x_names=["x1"])
        path = tmp_path / "d.csv"
        write_csv(path, ["time,trend", f'"{long}",0.5', "2,1.0"])
        with pytest.raises(InputError, match=r"d\.csv:2: field larger than field limit"):
            read_common_rows(path)
        write_csv(path, [f"time,{long}", "1,0.5"])
        with pytest.raises(InputError, match=r"d\.csv:1: field larger than field limit"):
            read_common_rows(path)

    @pytest.mark.parametrize("separator", ["", "\x1f"], ids=["numpy", "records"])
    def test_both_readers_refuse_an_unread_field_over_the_csv_limit(self, tmp_path, separator):
        # numpy parses the file unless it holds U+001C-U+001F; the record reader then parses it.
        path = tmp_path / "p.csv"
        long = "n" * 200_000
        write_csv(path, ["unit,time,y,x1,note", f"a,1,1.0,0.5,x{separator}", "a,2,1.0,0.5,", f"a,3,1.0,0.5,{long}"])
        with pytest.raises(InputError, match=r"p\.csv:4: field larger than field limit"):
            read_panel_rows(path, y="y", x_names=["x1"])

    def test_both_readers_refuse_a_quoted_field_over_the_csv_limit_across_lines(self, tmp_path):
        # 4,000 lines of 50 characters in one quoted field: no line passes the limit, the field does.
        path = tmp_path / "p.csv"
        note = "\n".join(["a" * 50] * 4000)
        write_csv(path, ["unit,time,y,x1,x2,note", f'a,1,1.0,0.5,0.2,"{note}"', "b,1,1.0,0.5,0.2,x"])
        with pytest.raises(InputError, match=r"p\.csv:2: field larger than field limit \(131072\)"):
            read_panel_rows(path, y="y", x_names=["x1", "x2"])
        with pytest.raises(InputError, match=r"p\.csv:2: field larger than field limit \(131072\)"):
            io._read_records(path, [0, 1, 2, 3, 4], 2)

    def test_quotes_within_lines_keep_numpy_reading(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, ["unit,time,y,x1", '"a, b",1,1.0,0.5', '"a ""c""",1,2.0,0.25', "d,1,3.0,0.125"])
        with mock.patch.object(io, "_read_records", side_effect=AssertionError("record reader used")):
            rows = read_panel_rows(path, y="y", x_names=["x1"])
        assert list(rows) == [("a, b", 1, 1.0, 0.5), ('a "c"', 1, 2.0, 0.25), ("d", 1, 3.0, 0.125)]

    def test_repeated_common_column_is_an_input_error(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["time,d,d", "1,0.5,0.7", "2,1.0,1.2"])
        with pytest.raises(InputError, match=r"d\.csv: column 'd' is named more than once"):
            read_common_rows(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("")
        with pytest.raises(InputError):
            read_panel_rows(path, y="y", x_names=["x1"])

    def test_common_file(self, tmp_path):
        panel_path = tmp_path / "p.csv"
        write_csv(
            panel_path,
            ["unit,time,y,x1", "a,1,1.0,0.1", "a,2,2.0,0.2", "b,1,3.0,0.3", "b,2,4.0,0.4"],
        )
        common_path = tmp_path / "d.csv"
        write_csv(common_path, ["time,trend", "1,0.0", "2,1.0"])
        panel = load_panel(
            panel_path, y="y", x_names=["x1"], common_path=common_path, intercept=True
        )
        assert panel.d.shape == (2, 2)  # intercept + trend
        assert panel.d[1, 1] == 1.0


# Equal periods spelled differently, a non-numeric one, and NaN (a defect).
PERIODS = {1: ("1", "1.0"), 2: ("2", "2.00", " 2"), 3: ("3", "3e0"), 4.5: ("4.5",), "q": ("q",)}
UNITS = st.text("ab7 ,\"\n", min_size=1, max_size=3)
NUMBERS = st.floats(-1e3, 1e3).map(repr)
# Values float() reads and numpy's tokenizer does not, and U+001C-U+001F, which
# numpy strips around a number and float() refuses.
ODD_NUMBERS = ("1_0", "\u0661", "\u0662.5", "\x1c1.5", "\x1d1.5", "2\x1e", "2\x1f")
PANEL_DEFECTS = ("ragged", "bad float", "nan time", "duplicate", "missing", "non-finite", "odd number")


def csv_text(draw, header, records):
    """CSV text of ``records`` under ``header``: quoting, line ends, blank and
    whitespace-only lines, text after a closing quote, an unterminated quote
    at the end and a BOM drawn."""
    out = text_io.StringIO()
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    writer = csv.writer(out, lineterminator=end, quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    writer.writerow(header)
    for record in records:
        if draw(st.integers(0, 5)) == 0:
            out.write(draw(st.sampled_from(["", "", "", "", " ", "\t"])) + end)  # a blank or whitespace-only line
        if draw(st.integers(0, 5)) == 0 and all(field and not set(field) & set(',"\r\n') for field in record):
            out.write(",".join(f'"{field[0]}"{field[1:]}' for field in record) + end)  # "a"b reads as ab
        else:
            writer.writerow(record)
    text = out.getvalue()
    tail = draw(st.sampled_from(["", "", "", "", "", '"', '"a' + end, ',"1']))  # an unterminated quote
    if tail.startswith(","):
        text = text[: -len(end)]  # the quote opens a field of the last record
    return draw(st.sampled_from(["", "\ufeff"])) + text + tail


@st.composite
def panel_files(draw):
    """The text of a long-format CSV with up to three defects, and of an optional common file."""
    units = draw(st.lists(UNITS, min_size=2, max_size=3, unique=True))
    periods = draw(st.lists(st.sampled_from(sorted(PERIODS, key=str)), min_size=2, max_size=4, unique=True))
    x_names = ["x1", "x2"][: draw(st.integers(1, 2))]
    header = draw(st.permutations(["unit", "time", "y", *x_names, "note"]))
    records = []
    for unit in units:
        for period in periods:
            fields = {"unit": unit, "time": draw(st.sampled_from(PERIODS[period])), "note": "-"}
            fields.update((name, draw(NUMBERS)) for name in ["y", *x_names])
            records.append([fields[name] for name in header] + ["extra"] * draw(st.integers(0, 1)))
    records = draw(st.permutations(records))
    for kind in draw(st.lists(st.sampled_from(PANEL_DEFECTS), max_size=3)):
        at = draw(st.integers(0, len(records) - 1))
        record = list(records[at])
        column = header.index(draw(st.sampled_from(["y", *x_names])))
        if kind == "ragged":
            record = record[: draw(st.integers(1, len(header) - 1))]
        elif kind == "duplicate":
            records.insert(draw(st.integers(0, len(records))), record)
        elif kind == "missing":
            del records[at]
            continue
        elif kind == "nan time":
            if header.index("time") < len(record):  # a ragged cut may have taken it
                record[header.index("time")] = draw(st.sampled_from(["nan", "NaN"]))
        elif column < len(record):
            odd = ODD_NUMBERS if kind == "odd number" else ["oops"] if kind == "bad float" else ["nan", "inf", "-inf"]
            record[column] = draw(st.sampled_from(odd))
        records[at] = record
    common = None
    if draw(st.booleans()):
        d_names = ["d1", "d2"][: draw(st.integers(0, 2))]
        rows = [[draw(st.sampled_from(PERIODS[period])), *(draw(NUMBERS) for _ in d_names)] for period in periods]
        if draw(st.booleans()):
            rows.append(draw(st.sampled_from([rows[0], ["9", *("0" for _ in d_names)], ["1"] * (len(d_names) + 2)])))
        if d_names and draw(st.booleans()):
            rows[0][1] = draw(st.sampled_from(["oops", "inf"]))
        common = csv_text(draw, ["time", *d_names], draw(st.permutations(rows)))
    return csv_text(draw, header, records), x_names, common, draw(st.booleans())


def outcome(read):
    """What a caller can observe: the arrays and labels, or the error."""
    try:
        panel = read()
    except Exception as err:  # the error class and text are the outcome
        return type(err).__name__, str(err)
    d = None if panel.d is None else (panel.d.shape, panel.d.tobytes())
    labels = repr((panel.unit_labels, panel.time_labels))
    return panel.y.shape, panel.y.tobytes(), panel.x.shape, panel.x.tobytes(), d, labels


def reference_load(path, x_names, common_path=None, intercept=True):
    """``load_panel`` by conftest's record-at-a-time reader and row-at-a-time builder."""
    rows = reference_read_rows(path, ["unit", "time"], ["y", *x_names])
    common = reference_read_rows(common_path, ["time"]) if common_path else None
    return reference_build_panel(rows, common_rows=common, intercept=intercept)


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("stream")


class TestStreamingReader:
    """``load_panel`` against the record-at-a-time reader and row-at-a-time builder in conftest."""

    @pytest.mark.parametrize("batch", [io._BATCH, 2])
    @given(case=panel_files())
    @settings(max_examples=300, deadline=None)
    def test_same_outcome_as_reference(self, folder, batch, case):
        text, x_names, common_text, intercept = case
        path, common_path = folder / "p.csv", (folder / "d.csv" if common_text is not None else None)
        path.write_text(text, encoding="utf-8", newline="")
        if common_path is not None:
            common_path.write_text(common_text, encoding="utf-8", newline="")

        with mock.patch.object(io, "_BATCH", batch):  # records straddle batch edges at 2
            got = outcome(lambda: load_panel(path, "y", x_names, common_path=common_path, intercept=intercept))
        assert got == outcome(lambda: reference_load(path, x_names, common_path, intercept))

    def test_floats_read_bitwise_as_python_reads_them(self, rng, tmp_path):
        # 10^5 varied tokens through numpy's tokenizer (the record reader may not
        # run): random bit patterns, 0-25 decimals, exponent forms, 40 digits.
        n = 25_000
        bits = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(float)
        scaled = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, size=n)
        places = rng.integers(0, 26, size=n)
        digits = rng.integers(0, 10, size=(n, 40)).astype(str)
        cut = rng.integers(0, 41, size=n)
        tokens = [
            *map(repr, bits.tolist()),
            *(f"{v:.{d}f}" for v, d in zip(scaled.tolist(), places.tolist())),
            *(f"{v:+.{d}{'eE'[d % 2]}}" for v, d in zip(bits.tolist(), places.tolist())),
            *("".join(row[:c]) + "." + "".join(row[c:]) + ("", "e-300", "E17")[c % 3] for row, c in zip(digits, cut)),
        ]
        path = tmp_path / "p.csv"
        lines = ["unit,time,y,x1,x2,x3", *(f"u{i},1,{','.join(tokens[4 * i : 4 * i + 4])}" for i in range(n))]
        write_csv(path, lines)
        with mock.patch.object(io, "_read_records", side_effect=AssertionError("numpy refused a token")):
            table = read_panel_rows(path, "y", ["x1", "x2", "x3"]).table
        want = np.array([float(token) for token in tokens]).reshape(n, 4)
        assert np.array_equal(table.view(np.uint64), want.view(np.uint64))

    def test_peak_memory_is_a_few_times_the_file(self, rng, tmp_path):
        path = tmp_path / "p.csv"
        write_panel_csv(random_panel(rng, n=5000, t=10, k=2), path)
        tracemalloc.start()
        try:
            load_panel(path, "y", ["x1", "x2"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * path.stat().st_size


def panel_records(rng, n, t, k):
    """The fields of an n x t panel's records (unit, time, y, x1..xk), units u000, u001, ..."""
    return [[f"u{i:03d}", str(s + 1), *map(repr, rng.standard_normal(1 + k).tolist())] for i in range(n) for s in range(t)]


def write_records(path, records, k):
    write_csv(path, [",".join(["unit", "time", "y", *(f"x{j + 1}" for j in range(k))]), *map(",".join, records)])


class TestGridBuilder:
    """What the grid builder behind ``load_panel`` decides, each error checked against ``reference_load``."""

    def same_error(self, path, error, k=1, common_path=None):
        x_names = [f"x{j + 1}" for j in range(k)]
        got = outcome(lambda: load_panel(path, "y", x_names, common_path=common_path))
        assert got == outcome(lambda: reference_load(path, x_names, common_path))
        assert got[0] == error.__name__
        return got[1]

    def test_numeric_time_sorted_numerically(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, ["unit,time,y,x1", *(f"{unit},{time},1.0,1.0" for unit in "ab" for time in (10, 9, 2))])
        assert load_panel(path, "y", ["x1"]).time_labels == (2, 9, 10)

    def test_first_missing_cell_in_sorted_order(self, rng, tmp_path):
        path = tmp_path / "p.csv"
        records = [r for r in panel_records(rng, 3, 4, 1) if (r[0], r[1]) not in {("u002", "1"), ("u001", "3")}]
        write_records(path, records, 1)
        assert self.same_error(path, UnbalancedPanel) == "missing observation for ('u001', 3)"

    def test_duplicate_beats_nonfinite_in_one_row(self, rng, tmp_path):
        path = tmp_path / "p.csv"
        records = panel_records(rng, 2, 3, 1)
        write_records(path, records + [records[1][:2] + ["inf", "1.0"]], 1)
        assert self.same_error(path, DuplicateObservation) == "duplicate observation for ('u000', 2)"

    def test_common_rows_must_cover_the_times(self, rng, tmp_path):
        path, common_path = tmp_path / "p.csv", tmp_path / "d.csv"
        write_records(path, panel_records(rng, 2, 3, 1), 1)
        write_csv(common_path, ["time,trend", "1,0.5", "2,0.7"])
        assert self.same_error(path, UnbalancedPanel, common_path=common_path) == "common rows missing times [3]"

    def test_common_rows_with_unknown_time(self, rng, tmp_path):
        path, common_path = tmp_path / "p.csv", tmp_path / "d.csv"
        write_records(path, panel_records(rng, 2, 3, 1), 1)
        write_csv(common_path, ["time,trend", "1,0.5", "2,0.7", "3,0.9", "4,1.1"])
        message = self.same_error(path, UnbalancedPanel, common_path=common_path)
        assert message == "common rows cover unknown times [4]"

    @pytest.mark.parametrize("rows, error, message", [
        (["2,0.8", "3,nan"], DuplicateObservation, "duplicate common row for time 2"),
        (["3,nan", "2,0.8"], NonFiniteValue, "non-finite common regressor at time 3"),
    ], ids=["duplicate-first", "nonfinite-first"])
    def test_repeated_common_time(self, rng, tmp_path, rows, error, message):
        # Time 2 repeats and time 3 is non-finite: the earlier row in the file decides.
        path, common_path = tmp_path / "p.csv", tmp_path / "d.csv"
        write_records(path, panel_records(rng, 2, 3, 1), 1)
        write_csv(common_path, ["time,trend", "1,0.5", "2,0.7", *rows])
        assert self.same_error(path, error, common_path=common_path) == message

    def test_paper_sized_panel(self, rng, tmp_path):
        # The application's dimensions: 61 countries over 38 weeks, three regressors.
        path = tmp_path / "p.csv"
        records = panel_records(rng, 61, 38, 3)
        write_records(path, records[::-1], 3)
        panel = load_panel(path, "y", ["x1", "x2", "x3"])
        assert (panel.n_units, panel.n_periods, panel.n_regressors) == (61, 38, 3)
        assert panel.x[60, 37, 2] == float(records[-1][-1])

    @pytest.mark.parametrize(
        "first, second, error",
        [
            ("nonfinite", "duplicate", NonFiniteValue),
            ("duplicate", "nonfinite", DuplicateObservation),
            ("missing", "nonfinite", NonFiniteValue),
            ("duplicate", "ragged", RaggedRow),
            ("nonfinite", "ragged", RaggedRow),
        ],
    )
    def test_first_defect_in_file_order_wins(self, rng, tmp_path, first, second, error):
        # The reader raises a ragged record as it meets it, before the grid
        # builder sees a row; then the first defective row in file order decides.
        records = panel_records(rng, 3, 4, 2)

        def inject(kind, at):
            if kind == "nonfinite":
                records[at][3] = "nan"
            elif kind == "duplicate":
                records[at][:2] = records[0][:2]
            elif kind == "ragged":
                del records[at][-1]
            else:  # the record moves to a new unit, leaving its cell missing
                records[at][0] = "no such unit"

        inject(first, 3)
        inject(second, 7)
        path = tmp_path / "p.csv"
        write_records(path, records, 2)
        message = self.same_error(path, error, k=2)
        if error is RaggedRow:  # record 7 sits on file line 9, after the header
            assert message == f"{path}:9: row has 4 fields"


class TestRoundTrip:
    def test_bitwise_round_trip(self, rng, tmp_path):
        panel = random_panel(rng, n=4, t=6, k=3)
        path = tmp_path / "out.csv"
        write_panel_csv(panel, path)
        back = load_panel(path, y="y", x_names=["x1", "x2", "x3"], intercept=False)
        assert np.array_equal(back.y, panel.y)
        assert np.array_equal(back.x, panel.x)

    def test_name_count_checked(self, rng, tmp_path):
        panel = random_panel(rng, n=3, t=4, k=2)
        with pytest.raises(InputError):
            write_panel_csv(panel, tmp_path / "out.csv", x_names=["only_one"])


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.txt"
        write_text_atomic(path, "one\n")
        write_text_atomic(path, "two\n")
        assert path.read_text() == "two\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        path.write_text("old\n")

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            write_text_atomic(path, "new\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        assert path.read_text() == "old\n"


    def test_the_file_gets_the_mode_open_would_leave(self, tmp_path):
        old = os.umask(0o027)
        try:
            write_text_atomic(tmp_path / "new.txt", "one\n")
            (tmp_path / "opened.txt").write_text("one\n")
        finally:
            os.umask(old)
        assert (tmp_path / "new.txt").stat().st_mode & 0o777 == (tmp_path / "opened.txt").stat().st_mode & 0o777 == 0o640
        (tmp_path / "new.txt").chmod(0o604)  # an existing file keeps its mode
        write_text_atomic(tmp_path / "new.txt", "two\n")
        assert (tmp_path / "new.txt").stat().st_mode & 0o777 == 0o604

    def test_a_symlink_is_written_through(self, tmp_path):
        # As open(path, "w") would: the link stays a link and its target gets the text.
        (tmp_path / "reports").mkdir()
        target = tmp_path / "reports" / "target.json"
        target.write_text("old\n")
        target.chmod(0o604)
        link = tmp_path / "link.json"
        link.symlink_to(os.path.join("reports", "target.json"))
        write_text_atomic(link, "new\n")
        assert link.is_symlink() and os.readlink(link) == os.path.join("reports", "target.json")
        assert target.read_text() == "new\n"
        assert target.stat().st_mode & 0o777 == 0o604
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["link.json", "reports", "target.json"]


class TestKeyValueConfig:
    def test_parse(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text(
            "# experiment\nn_units = 50\nreps= 10  # fast\n\ndelta = 0.5,0.5\n"
        )
        cfg = read_keyvalue_config(path)
        assert cfg == {"n_units": "50", "reps": "10", "delta": "0.5,0.5"}

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("n_units 50\n")
        with pytest.raises(InputError):
            read_keyvalue_config(path)
