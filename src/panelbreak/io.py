"""CSV ingestion and emission for long-format panels.

Long format: header ``unit,time,y,<x-names...>`` with one row per
(unit, time); optional second file ``time,<d-names...>`` for known
common regressors. UTF-8 (a leading byte-order mark is skipped), '.'
decimals, IEEE doubles.
"""

from __future__ import annotations

import csv
import os
import tempfile
from array import array
from collections.abc import Sequence
from functools import cached_property
from itertools import islice

import numpy as np

from .exceptions import InputError, RaggedRow
from .panel import PanelData, _assemble_panel


def _parse_time(token: str):
    try:
        value = float(token)
    except ValueError:
        return token
    if value != value:
        # NaN equals nothing, not even itself, so it cannot label a period.
        raise ValueError(f"time label {token!r} is not a number")
    return int(value) if value.is_integer() else value


def _column_indices(header, names, path):
    indices = []
    for name in names:
        if name not in header:
            raise InputError(f"{path}: column {name!r} not found in {header}")
        if names.count(name) + header.count(name) > 2:
            raise InputError(f"{path}: column {name!r} is named more than once")
        indices.append(header.index(name))
    return indices


_BATCH = 4096  # CSV records converted at a time: the reader never holds more


def _read_columns(path, select, n_labels):
    """Label columns and an (n, m) float array of the non-blank records of a CSV file.

    ``select(header)`` names the columns to keep: ``n_labels`` labels, the
    last of them a time token, then the values, read with Python's
    ``float``. Records are converted a batch at a time, each distinct time
    token once; only on a failure is the file read again record by record,
    so the error names the line of the file where the first bad record
    starts.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise InputError(f"{path}: empty file") from None
        idx = _column_indices(header, select(header), path)
        labels = [[] for _ in range(n_labels)]
        values = [array("d") for _ in idx[n_labels:]]
        times, seen = {}, {}
        records = filter(None, reader)  # a blank line is no record
        for batch in iter(lambda: list(islice(records, _BATCH)), []):
            try:
                cols = list(zip(*batch))  # as many columns as the shortest record has
                tokens = cols[idx[n_labels - 1]]
                times.update((token, _parse_time(token)) for token in set(tokens).difference(times))
                for out, i in zip(labels, idx[: n_labels - 1]):
                    out.extend(map(seen.setdefault, cols[i], cols[i]))  # equal labels, one object
                labels[-1].extend(map(times.__getitem__, tokens))
                for out, i in zip(values, idx[n_labels:]):
                    out.extend(map(float, cols[i]))
            except (IndexError, ValueError):
                for _ in reader:  # an error reading the rest of the file comes first
                    pass
                _raise_first_bad_record(path, idx, n_labels)
                raise
    table = np.empty((len(labels[0]), len(values)))
    for column, v in zip(table.T, values):
        column[:] = v
    return labels, table


def _raise_first_bad_record(path, idx, n_labels):
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        next(reader, None)
        start = reader.line_num + 1
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if not row:
                continue
            if max(idx) >= len(row):
                raise RaggedRow(f"{path}:{lineno}: row has {len(row)} fields") from None
            try:
                _parse_time(row[idx[n_labels - 1]])
                [float(row[i]) for i in idx[n_labels:]]
            except ValueError as err:
                raise InputError(f"{path}:{lineno}: {err}") from None


class _RowView(Sequence):
    """Read-only rows (label..., value...) of the reader's columns.

    The row tuples are made on first access, so ``load_panel``, which
    takes the columns, never makes them.
    """

    def __init__(self, labels, table):
        self.labels, self.table = labels, table

    def __len__(self):
        return len(self.table)

    def __getitem__(self, i):
        return self._rows[i]

    @cached_property
    def _rows(self):
        return list(zip(*self.labels, *self.table.T.tolist()))


def read_panel_rows(path, y: str, x_names):
    """Read long-format observation rows (unit, time, y, x...) as a read-only sequence."""
    return _RowView(*_read_columns(path, lambda header: ["unit", "time", y, *x_names], 2))


def read_common_rows(path):
    """Read common-regressor rows (time, d...); every column but ``time`` is a regressor."""
    return list(_RowView(*_read_columns(path, lambda header: ["time", *(h for h in header if h != "time")], 1)))


def write_panel_csv(panel: PanelData, path, y: str = "y", x_names=None) -> None:
    """Emit a panel back to long-format CSV at full round-trip precision."""
    k = panel.n_regressors
    x_names = list(x_names) if x_names is not None else [f"x{j + 1}" for j in range(k)]
    if len(x_names) != k:
        raise InputError(f"need {k} regressor names, got {len(x_names)}")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["unit", "time", y, *x_names])
        for i, unit in enumerate(panel.unit_labels):
            for t, time in enumerate(panel.time_labels):
                writer.writerow(
                    [unit, time, repr(float(panel.y[i, t])), *(repr(float(v)) for v in panel.x[i, t])]
                )


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file and a rename.

    Readers see the old file or the whole new one, never a partial write,
    and the temporary file is removed when anything fails.
    """
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_panel(
    panel_path,
    y: str,
    x_names,
    common_path=None,
    intercept: bool = True,
) -> PanelData:
    rows = read_panel_rows(panel_path, y, x_names)
    common = read_common_rows(common_path) if common_path else None
    return _assemble_panel(*rows.labels, rows.table, common, intercept)


def read_keyvalue_config(path) -> dict:
    """Plain-text key = value configuration, '#' starts a comment."""
    out = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = value
    return out
