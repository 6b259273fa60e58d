"""CSV ingestion and emission for long-format panels.

Long format: header ``unit,time,y,<x-names...>`` with one row per
(unit, time); optional second file ``time,<d-names...>`` for known
common regressors. UTF-8 (a leading byte-order mark is skipped), '.'
decimals, IEEE doubles.
"""

from __future__ import annotations

import contextlib
import csv
import os
import stat
import tempfile
import warnings
from array import array
from collections.abc import Sequence
from functools import cached_property

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


_BATCH = 4096  # records numpy parses at a time; loadtxt preallocates this many rows
# U+001C-U+001F, which numpy strips around a number and float() refuses; in
# UTF-8 these bytes encode nothing else.
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _read_columns(path, select, n_labels):
    """Label columns and an (n, m) float array of the non-blank records of a CSV file.

    ``select(header)`` names the columns to keep: ``n_labels`` labels, the
    last of them a time token, then the values, read as Python's ``float``
    reads them. numpy's tokenizer parses the records ``_BATCH`` at a time,
    each distinct label once. A file it might read otherwise than ``csv``
    and ``float`` do is read again by ``_read_records``, which also names
    the file line of the first bad record.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle, open(path, "rb") as raw:
            reader = csv.reader(handle)
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise InputError(f"{path}: empty file") from None
            except csv.Error as err:
                raise InputError(f"{path}:1: {err}") from None
            idx = _column_indices(header, select(header), path)
            # numpy reads the file as csv and float do unless it holds U+001C-U+001F, a line feed inside
            # quotes or a line, and so maybe a field, over csv's field limit, which numpy does not enforce
            # (lone-CR line ends make one line). Blocks of at most 64 KiB stay under malloc's mmap threshold
            # (1 MiB ones add ~0.7 MB to ingest's peak RSS); no longer than the limit, none holds a line over it.
            limit, run, quoted = csv.field_size_limit(), 0, 0  # bytes since the last line feed; inside quotes
            for chunk in iter(lambda: raw.read(min(1 << 16, limit)), b""):
                first, last = chunk.find(b"\n"), chunk.rfind(b"\n")
                parts = chunk.split(b'"')  # from parts[1 - quoted] on, every other part lies inside quotes
                if any(sep in chunk for sep in _SEPARATORS) or run + (len(chunk) if first < 0 else first) > limit:
                    break
                if any(b"\n" in part for part in parts[1 - quoted :: 2]):
                    break
                run = run + len(chunk) if last < 0 else len(chunk) - last - 1
                quoted = (quoted + len(parts) - 1) % 2
            else:
                with contextlib.suppress(ValueError):  # then read it again, record by record
                    return _parse_batches(handle, idx, n_labels)
        return _read_records(path, idx, n_labels)
    except UnicodeDecodeError as err:
        raise InputError(f"{path}: not UTF-8 text ({err.reason})") from None


def _parse_batches(handle, idx, n_labels):
    """The columns of the records left in ``handle``, parsed by numpy ``_BATCH`` at a time.

    Raises ``ValueError`` on a record numpy refuses or a NaN time token.
    """
    dtype = np.dtype([("labels", object, (n_labels,)), ("values", float, (len(idx) - n_labels,))])
    labels, known, blocks = [[] for _ in range(n_labels)], [{} for _ in range(n_labels)], []
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", ".*contained no data", UserWarning)
        while True:
            batch = np.loadtxt(
                handle, dtype, delimiter=",", quotechar='"', comments=None, usecols=idx, ndmin=1, max_rows=_BATCH
            )
            for j, (out, seen) in enumerate(zip(labels, known)):  # seen: token -> label, one object each
                tokens = batch["labels"][:, j].tolist()
                new = set(tokens).difference(seen)
                seen.update((token, _parse_time(token) if j == n_labels - 1 else token) for token in new)
                out.extend(map(seen.__getitem__, tokens))
            blocks.append(batch["values"].copy())
            if len(batch) < _BATCH:
                return labels, np.concatenate(blocks)


def _read_records(path, idx, n_labels):
    """The columns ``_read_columns`` returns, read one csv record at a time.

    The first bad record raises, naming the file line where it starts.
    """
    labels, values, seen = [[] for _ in range(n_labels)], array("d"), {}
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        next(reader)
        start = reader.line_num + 1
        try:
            for row in reader:
                lineno, start = start, reader.line_num + 1
                if not row:
                    continue
                if max(idx) >= len(row):
                    raise RaggedRow(f"{path}:{lineno}: row has {len(row)} fields")
                try:
                    labels[-1].append(_parse_time(row[idx[n_labels - 1]]))
                    values.extend([float(row[i]) for i in idx[n_labels:]])
                except ValueError as err:
                    raise InputError(f"{path}:{lineno}: {err}") from None
                for out, i in zip(labels, idx[: n_labels - 1]):
                    out.append(seen.setdefault(row[i], row[i]))
        except csv.Error as err:
            raise InputError(f"{path}:{start}: {err}") from None
    return labels, np.array(values).reshape(len(labels[-1]), len(idx) - n_labels)


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

    Readers see the old file or the whole new one, never a partial write, and the
    temporary file is removed when anything fails. As with ``open(path, "w")``, the text
    is UTF-8, a symlink's target gets it, and the file gets the mode open would leave.
    """
    path = os.path.realpath(path)
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0o022)  # the umask is read by setting it; put back on the next line
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")  # made with mode 0600
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            os.fchmod(fd, mode)
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
    """The balanced panel of a long-format CSV, units and times sorted. ``common_path`` names an
    optional CSV of common regressors by time; ``intercept`` puts a constant column first in d.
    Every input fault is an ``InputError``, found in the order README "Input checks" gives."""
    rows = read_panel_rows(panel_path, y, x_names)
    common = read_common_rows(common_path) if common_path else None
    return _assemble_panel(*rows.labels, rows.table, common, intercept)


def read_keyvalue_config(path) -> dict:
    """Plain-text key = value configuration, '#' starts a comment."""
    out = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InputError(f"{path}:{lineno}: expected key = value")
                key, value = (part.strip() for part in line.split("=", 1))
                out[key] = value
    except UnicodeDecodeError as err:
        raise InputError(f"{path}: not UTF-8 text ({err.reason})") from None
    return out
