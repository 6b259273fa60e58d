"""Core panel data types and the break-interacted regressor transform.

Conventions used throughout the package:

* Time periods are re-indexed internally to 1..T in the sorted order of
  their labels; all reported dates map back to labels.
* A break date ``b`` is the LAST period of the pre-break regime, so the
  post-break indicator is one for periods t > b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DuplicateObservation,
    InputError,
    NonFiniteValue,
    RaggedRow,
    UnbalancedPanel,
)


@dataclass(frozen=True)
class PanelData:
    """A balanced N x T panel with k regressors per observation.

    Attributes
    ----------
    y : ndarray, shape (N, T)
        Outcome variable.
    x : ndarray, shape (N, T, k)
        Regressors.
    d : ndarray, shape (T, n) or None
        Known common regressors (may include an intercept column).
    unit_labels, time_labels : tuple
        Identifiers, in the internal ordering. Time labels are strictly
        increasing under their declared total order.
    """

    y: np.ndarray
    x: np.ndarray
    d: np.ndarray | None = None
    unit_labels: tuple = ()
    time_labels: tuple = ()

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        x = np.asarray(self.x, dtype=float)
        if y.ndim != 2:
            raise InputError("y must be an N x T matrix")
        if x.ndim != 3:
            raise InputError("x must be an N x T x k tensor")
        n_units, n_periods = y.shape
        if x.shape[:2] != (n_units, n_periods):
            raise InputError(
                f"x has leading shape {x.shape[:2]}, expected {(n_units, n_periods)}"
            )
        if n_units < 2 or n_periods < 2 or x.shape[2] < 1:
            raise InputError("need N >= 2, T >= 2 and k >= 1")
        if not np.all(np.isfinite(y)) or not np.all(np.isfinite(x)):
            raise NonFiniteValue("panel contains non-finite values")
        d = self.d
        if d is not None:
            d = np.asarray(d, dtype=float)
            if d.ndim != 2 or d.shape[0] != n_periods:
                raise InputError("d must be a T x n matrix")
            if not np.all(np.isfinite(d)):
                raise NonFiniteValue("common regressors contain non-finite values")
            if d.shape[1] == 0:
                d = None
        unit_labels = tuple(self.unit_labels) or tuple(range(1, n_units + 1))
        time_labels = tuple(self.time_labels) or tuple(range(1, n_periods + 1))
        if len(unit_labels) != n_units or len(time_labels) != n_periods:
            raise InputError("label lengths do not match panel dimensions")
        for arr in (y, x) + ((d,) if d is not None else ()):
            arr.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "unit_labels", unit_labels)
        object.__setattr__(self, "time_labels", time_labels)

    @property
    def n_units(self) -> int:
        return self.y.shape[0]

    @property
    def n_periods(self) -> int:
        return self.y.shape[1]

    @property
    def n_regressors(self) -> int:
        return self.x.shape[2]

    def slice_periods(self, start: int, stop: int) -> "PanelData":
        """Sub-panel covering periods ``start``..``stop`` (1-based, inclusive)."""
        if not (1 <= start <= stop <= self.n_periods):
            raise InputError(f"invalid period window [{start}, {stop}]")
        sl = slice(start - 1, stop)
        return PanelData(
            y=self.y[:, sl].copy(),
            x=self.x[:, sl, :].copy(),
            d=None if self.d is None else self.d[sl, :].copy(),
            unit_labels=self.unit_labels,
            time_labels=self.time_labels[start - 1 : stop],
        )


@dataclass(frozen=True)
class BreakSpec:
    """Which coefficients may break, and over which candidate dates.

    ``selection`` is the k x r 0/1 matrix with one unit column per
    breaking coefficient. ``trim_fraction`` only shapes the testing
    candidate set.
    """

    selection: np.ndarray
    trim_fraction: float = 0.15

    def __post_init__(self):
        sel = np.asarray(self.selection, dtype=float)
        if sel.ndim != 2 or sel.shape[1] < 1:
            raise InputError("selection must be a k x r matrix with r >= 1")
        k, r = sel.shape
        if r > k:
            raise InputError("cannot have more breaking coefficients than regressors")
        ok = np.all((sel == 0.0) | (sel == 1.0)) and np.all(sel.sum(axis=0) == 1.0)
        if not ok:
            raise InputError("selection columns must be unit basis vectors")
        rows = np.argmax(sel, axis=0)
        if len(set(rows.tolist())) != r:
            raise InputError("selection columns must be distinct (full column rank)")
        if not (0.0 < self.trim_fraction < 0.5):
            raise InputError("trim_fraction must lie in (0, 0.5)")
        sel.setflags(write=False)
        object.__setattr__(self, "selection", sel)

    @classmethod
    def from_indices(cls, k: int, breaking: "list[int]", **kwargs) -> "BreakSpec":
        """Spec selecting 0-based regressor coordinates ``breaking``."""
        sel = np.zeros((k, len(breaking)))
        for j, idx in enumerate(breaking):
            sel[idx, j] = 1.0
        return cls(selection=sel, **kwargs)

    @property
    def n_breaking(self) -> int:
        return self.selection.shape[1]


def _coerce_time_order(labels):
    """Sort time labels numerically when possible, else lexicographically.

    The theory needs a total order on periods; callers with exotic label
    types should pre-map them to sortable values.
    """
    try:
        keyed = sorted(labels, key=float)
        return keyed
    except (TypeError, ValueError):
        return sorted(labels, key=str)


def _assemble_panel(units, times, values, common_rows=None, intercept=False) -> PanelData:
    """The panel of label columns ``units``, ``times`` and a (rows, 1+k) ``values`` array.

    The first row with a duplicate (unit, time) pair or a non-finite value
    decides the error, the duplicate first within a row; once every row
    passes, UnbalancedPanel names the first missing cell in sorted order.
    """
    if not len(units):
        raise InputError("no observations supplied")
    if values.shape[1] < 2:
        raise RaggedRow("rows need at least (unit, time, y, x1)")
    # Labels coded in first-seen order; equal labels share a code.
    unit_code = {unit: j for j, unit in enumerate(dict.fromkeys(units))}
    time_code = {time: j for j, time in enumerate(dict.fromkeys(times))}
    ucodes = np.fromiter(map(unit_code.__getitem__, units), np.intp, len(units))
    tcodes = np.fromiter(map(time_code.__getitem__, times), np.intp, len(times))
    keys = ucodes * len(time_code) + tcodes
    order = np.argsort(keys, kind="stable")
    repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
    duplicate = int(repeats.min()) if repeats.size else len(units)
    nonfinite = np.flatnonzero(~np.isfinite(values).all(axis=1))
    bad_value = int(nonfinite[0]) if nonfinite.size else len(values)
    if duplicate <= bad_value and duplicate < len(units):
        raise DuplicateObservation(f"duplicate observation for {(units[duplicate], times[duplicate])}")
    if bad_value < len(values):
        raise NonFiniteValue(f"non-finite value at {(units[bad_value], times[bad_value])}")
    units_sorted = sorted(unit_code)
    times_sorted = _coerce_time_order(time_code)
    n_units, n_periods = len(units_sorted), len(times_sorted)
    # Sorted position of each first-seen code: the inverse permutation.
    unit_rank = np.argsort([unit_code[u] for u in units_sorted])
    time_rank = np.argsort([time_code[t] for t in times_sorted])
    grid = np.full((n_units, n_periods), -1, dtype=np.intp)
    grid[unit_rank[ucodes], time_rank[tcodes]] = np.arange(len(units))
    gaps = np.flatnonzero(grid < 0)
    if gaps.size:
        i, t = divmod(int(gaps[0]), n_periods)
        raise UnbalancedPanel(f"missing observation for {(units_sorted[i], times_sorted[t])}")
    y, x = values[grid, 0], values[grid, 1:]
    d = None
    if common_rows is not None:
        common = {}
        for time, *vals in common_rows:
            if time in common:
                raise DuplicateObservation(f"duplicate common row for time {time}")
            vals = np.array(vals, dtype=float)
            if not np.all(np.isfinite(vals)):
                raise NonFiniteValue(f"non-finite common regressor at time {time}")
            common[time] = vals
        missing = [t for t in times_sorted if t not in common]
        if missing:
            raise UnbalancedPanel(f"common rows missing times {missing[:5]}")
        extra = [t for t in common if t not in time_code]
        if extra:
            raise UnbalancedPanel(f"common rows cover unknown times {extra[:5]}")
        d = np.vstack([common[t] for t in times_sorted])  # PanelData drops a (T, 0) d
    if intercept:
        ones = np.ones((n_periods, 1))
        d = ones if d is None else np.hstack([ones, d])
    return PanelData(y=y, x=x, d=d, unit_labels=tuple(units_sorted), time_labels=tuple(times_sorted))


def post_break_mask(n_periods: int, b: int) -> np.ndarray:
    """Boolean length-T mask of periods t with t > b (1-based t)."""
    return np.arange(1, n_periods + 1) > b


def z_regressors(panel: PanelData, spec: BreakSpec, b: int) -> np.ndarray:
    """Break-interacted regressors z_{i,t}(b) = R'x_{i,t} * 1(t > b).

    ``b`` may be 0 (every period post-break) up to T-1 (only the last
    period post-break). Returns an N x T x r tensor.
    """
    T = panel.n_periods
    if not (0 <= b <= T - 1):
        raise InputError(f"break date {b} outside [0, {T - 1}]")
    z = panel.x @ spec.selection
    z[:, ~post_break_mask(T, b), :] = 0.0
    return z


def estimation_candidates(spec: BreakSpec, n_periods: int) -> "list[int]":
    """The estimation candidate set B = [r, T-r-1]."""
    r = spec.n_breaking
    return list(range(r, n_periods - r))


def testing_candidates(spec: BreakSpec, n_periods: int) -> "list[int]":
    """The trimmed testing candidate set B'.

    Integer dates b with floor(eps*T) <= b <= floor((1-eps)*T),
    intersected with the estimation set when both constraints bind.
    """
    eps = spec.trim_fraction
    lo = int(np.floor(eps * n_periods))
    hi = int(np.floor((1.0 - eps) * n_periods))
    r = spec.n_breaking
    return list(range(max(lo, r), min(hi, n_periods - r - 1) + 1))
