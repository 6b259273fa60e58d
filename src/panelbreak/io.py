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
from operator import itemgetter

from .exceptions import InputError, RaggedRow
from .panel import PanelData, build_panel


def _parse_time(token: str):
    try:
        value = float(token)
    except ValueError:
        return token
    if value != value:
        # NaN equals nothing, not even itself, so it cannot label a period.
        raise ValueError(f"time label {token!r} is not a number")
    return int(value) if value.is_integer() else value


def _read_rows(path):
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file") from None
        rows = list(reader)
    return [h.strip() for h in header], rows


def _column_indices(header, names, path):
    indices = []
    for name in names:
        if name not in header:
            raise InputError(f"{path}: column {name!r} not found in {header}")
        if names.count(name) + header.count(name) > 2:
            raise InputError(f"{path}: column {name!r} is named more than once")
        indices.append(header.index(name))
    return indices


def _parse_rows(path, rows, idx, n_labels):
    """Tuples of the columns ``idx`` of the non-blank CSV records ``rows``, emptied after.

    The first ``n_labels`` columns are labels, the last of them a time
    token; the rest are read with Python's ``float``. Columns are converted
    whole; only on a failure is the file read again record by record, so
    the error names the line of the file where the first bad record starts.
    """
    body = [row for row in rows if row]
    try:
        labels = [list(map(itemgetter(i), body)) for i in idx[:n_labels]]
        values = [list(map(float, map(itemgetter(i), body))) for i in idx[n_labels:]]
        times = {token: _parse_time(token) for token in set(labels[-1])}  # each distinct token once
        labels[-1] = [times[token] for token in labels[-1]]
    except (IndexError, ValueError):
        _raise_first_bad_record(path, idx, n_labels)
        raise
    del body
    rows.clear()  # the records die before the output tuples are built
    return list(zip(*labels, *values))


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


def read_panel_rows(path, y: str, x_names):
    """Read long-format observation rows (unit, time, y, x...)."""
    header, rows = _read_rows(path)
    idx = _column_indices(header, ["unit", "time", y, *x_names], path)
    return _parse_rows(path, rows, idx, n_labels=2)


def read_common_rows(path):
    """Read common-regressor rows (time, d...); every column but ``time`` is a regressor."""
    header, rows = _read_rows(path)
    idx = _column_indices(header, ["time", *(h for h in header if h != "time")], path)
    return _parse_rows(path, rows, idx, n_labels=1)


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
    raw = read_panel_rows(panel_path, y, x_names)
    common = read_common_rows(common_path) if common_path else None
    return build_panel(raw, common_rows=common, intercept=intercept)


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
