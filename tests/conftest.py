"""Shared builders and brute-force oracles for the test suite.

The oracles deliberately use a different computational route than the
package: dense T x T annihilators built from pseudoinverses, and
normal equations solved with explicit inverses. Slow and numerically
naive, but independent. ``reference_read_rows``, a record-at-a-time
CSV reader, and ``reference_build_panel``, a row-at-a-time panel
assembly, are together what ``load_panel`` (the streaming reader and
the grid builder) must match outcome for outcome,
``reference_sup_bessel_samples`` the allocating loop that the in-place
sup-Bessel simulator must match bit for bit, and
``simulated_argmax_quantiles`` simulates the law that
``argmax_quantile`` inverts in closed form.
"""

import csv
import math

import numpy as np
import pytest

from panelbreak import BreakSpec, HacConfig, Kernel, PanelData, estimator, wald, z_regressors
from panelbreak.estimator import ProjectorMode, projection_columns
from panelbreak.exceptions import (
    DuplicateObservation,
    InputError,
    NonFiniteValue,
    RaggedRow,
    UnbalancedPanel,
)
from panelbreak.panel import _coerce_time_order


def random_panel(rng, n=6, t=12, k=2, d_cols=0):
    """A small dense random panel (optionally with common regressors)."""
    y = rng.standard_normal((n, t))
    x = rng.standard_normal((n, t, k))
    d = None
    if d_cols:
        d = np.hstack([np.ones((t, 1)), rng.standard_normal((t, d_cols - 1))])
    return PanelData(y=y, x=x, d=d)


def oracle_annihilator(columns, t):
    """Dense I - B B^+ residual maker."""
    if columns is None or columns.size == 0:
        return np.eye(t)
    return np.eye(t) - columns @ np.linalg.pinv(columns)


def oracle_joint_fit(panel, spec, b, mode):
    """Joint stacked OLS of projected y on projected (X, Z(b)).

    Returns (theta, ssr) where theta stacks the k slope coefficients
    and the r break coefficients, solved via explicit normal equations.
    """
    t = panel.n_periods
    m_mat = oracle_annihilator(projection_columns(panel, spec, b, mode), t)
    z = z_regressors(panel, spec, b)
    ys, ws = [], []
    for i in range(panel.n_units):
        ys.append(m_mat @ panel.y[i])
        ws.append(np.hstack([m_mat @ panel.x[i], m_mat @ z[i]]))
    ys = np.concatenate(ys)
    ws = np.vstack(ws)
    theta = np.linalg.solve(ws.T @ ws, ws.T @ ys)
    resid = ys - ws @ theta
    return theta, float(resid @ resid)


def exact_break_panel(rng, n=8, t=16, k=2, b0=7, beta=(1.0, 0.5), delta=(2.0,)):
    """Noise-free panel y = x beta + z(b0) delta; the last coefficient breaks."""
    x = rng.standard_normal((n, t, k))
    spec = BreakSpec.from_indices(k, [k - 1])
    z = z_regressors(PanelData(y=np.zeros((n, t)), x=x), spec, b0)
    y = x @ np.asarray(beta) + z @ np.asarray(delta)
    return PanelData(y=y, x=x), spec


def acceptance_01_cases():
    """The 100 (panel, spec, hac) draws of the acceptance-01 panels, as test_engine.py makes them."""
    hacs = (
        HacConfig(),
        HacConfig(kernel=Kernel.TRUNCATED_UNIFORM, bandwidth=3),
    )
    rng = np.random.default_rng(101)
    for trial in range(100):
        n = int(rng.integers(4, 9))
        t = int(rng.integers(8, 16))
        k = int(rng.integers(1, 4))
        d_cols = int(rng.integers(0, 3))
        panel = random_panel(rng, n=n, t=t, k=k, d_cols=d_cols)
        r = int(rng.integers(1, k + 1))
        breaking = sorted(rng.choice(k, size=r, replace=False).tolist())
        lo = max(r, d_cols + r + 1)
        hi = min(t - r - 1, t - d_cols - r - 2)
        if lo <= hi:
            rng.integers(lo, hi + 1)
        yield panel, BreakSpec.from_indices(k, breaking), hacs[trial % len(hacs)]


def exact_tie_panel(rng):
    """The breaking regressor is zero over periods 4..8, so Z(b) and the SSR
    are the same for every b in 3..8; the break is at 5."""
    x = rng.standard_normal((20, 14, 2))
    x[:, 3:8, 1] = 0.0
    post = np.arange(1, 15) > 5
    y = x @ np.ones(2) + 2.0 * x[:, :, 1] * post + 0.1 * rng.standard_normal((20, 14))
    return PanelData(y=y, x=x), BreakSpec.from_indices(2, [1])


def zero_tail_panel():
    """The breaking regressor is zero after period 8, so Z(b) is all zero for b >= 8:
    its Gram and its data scale are both zero there."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20, 12, 2))
    x[:, 8:, 1] = 0.0
    y = x @ np.ones(2) + 0.1 * rng.standard_normal((20, 12))
    return PanelData(y=y, x=x), BreakSpec.from_indices(2, [1], trim_fraction=0.15)


def reference_build_panel(raw_rows, common_rows=None, intercept=False):
    """One row at a time: the first offending row raises, then the grid fills cell by cell."""
    rows = [tuple(row) for row in raw_rows]
    if not rows:
        raise InputError("no observations supplied")
    width = len(rows[0])
    if width < 4:
        raise RaggedRow("rows need at least (unit, time, y, x1)")
    cells: dict = {}
    units_seen, times_seen = [], []
    for row in rows:
        if len(row) != width:
            raise RaggedRow(f"row {row[:2]} has {len(row)} fields, expected {width}")
        unit, time = row[0], row[1]
        if (unit, time) in cells:
            raise DuplicateObservation(f"duplicate observation for {(unit, time)}")
        try:
            vals = np.asarray(row[2:], dtype=float)
        except (ValueError, TypeError) as err:
            raise InputError(f"unreadable value at {(unit, time)}: {err}") from None
        if not np.all(np.isfinite(vals)):
            raise NonFiniteValue(f"non-finite value at {(unit, time)}")
        cells[(unit, time)] = vals
        if unit not in units_seen:
            units_seen.append(unit)
        if time not in times_seen:
            times_seen.append(time)
    units = sorted(units_seen, key=lambda u: (str(type(u)), str(u)))
    times = _coerce_time_order(times_seen)
    k = width - 3
    n_units, n_periods = len(units), len(times)
    y = np.empty((n_units, n_periods))
    x = np.empty((n_units, n_periods, k))
    for i, unit in enumerate(units):
        for t, time in enumerate(times):
            vals = cells.get((unit, time))
            if vals is None:
                raise UnbalancedPanel(f"missing observation for {(unit, time)}")
            y[i, t] = vals[0]
            x[i, t, :] = vals[1:]
    d = None
    if common_rows is not None:
        common = {}
        cwidth = None
        for row in common_rows:
            row = tuple(row)
            if cwidth is None:
                cwidth = len(row)
            elif len(row) != cwidth:
                raise RaggedRow("common-regressor rows have inconsistent width")
            time = row[0]
            if time in common:
                raise DuplicateObservation(f"duplicate common row for time {time}")
            try:
                vals = np.asarray(row[1:], dtype=float)
            except (ValueError, TypeError) as err:
                raise InputError(f"unreadable common regressor at time {time}: {err}") from None
            if not np.all(np.isfinite(vals)):
                raise NonFiniteValue(f"non-finite common regressor at time {time}")
            common[time] = vals
        missing = [t for t in times if t not in common]
        if missing:
            raise UnbalancedPanel(f"common rows missing times {missing[:5]}")
        extra = [t for t in common if t not in set(times)]
        if extra:
            raise UnbalancedPanel(f"common rows cover unknown times {extra[:5]}")
        d = np.vstack([common[t] for t in times]) if cwidth > 1 else None
    if intercept:
        ones = np.ones((n_periods, 1))
        d = ones if d is None else np.hstack([ones, d])
    return PanelData(y=y, x=x, d=d, unit_labels=tuple(units), time_labels=tuple(times))


def reference_time_label(token):
    """A time token as a label: a number when it reads as one (integral ones as int), else the text."""
    try:
        value = float(token)
    except ValueError:
        return token
    if math.isnan(value):
        raise ValueError(f"time label {token!r} is not a number")
    return int(value) if math.isfinite(value) and value == math.floor(value) else value


def reference_read_rows(path, labels, values=None):
    """(label..., value...) tuples of the named columns, one CSV record at a time.

    The last of ``labels`` holds time tokens; ``values`` defaults to every
    other column of the header. A blank line is no record; the first bad
    record, or a field over csv's size limit, raises, naming the file line
    where its record starts.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = [name.strip() for name in next(reader)]
        except StopIteration:
            raise InputError(f"{path}: empty file") from None
        if values is None:
            values = [name for name in header if name not in labels]
        names = [*labels, *values]
        for name in names:
            if name not in header:
                raise InputError(f"{path}: column {name!r} not found in {header}")
            if names.count(name) + header.count(name) > 2:
                raise InputError(f"{path}: column {name!r} is named more than once")
        idx = [header.index(name) for name in names]
        rows = []
        line = reader.line_num + 1
        records = iter(reader)
        while True:
            try:
                record = next(records)
            except StopIteration:
                return rows
            except csv.Error as err:  # a field over csv's size limit
                raise InputError(f"{path}:{line}: {err}") from None
            line, first_line = reader.line_num + 1, line
            if not record:
                continue
            if len(record) <= max(idx):
                raise RaggedRow(f"{path}:{first_line}: row has {len(record)} fields")
            fields = [record[i] for i in idx]
            try:
                time = reference_time_label(fields[len(labels) - 1])
                numbers = [float(field) for field in fields[len(labels) :]]
            except ValueError as err:
                raise InputError(f"{path}:{first_line}: {err}") from None
            rows.append((*fields[: len(labels) - 1], time, *numbers))


def simulated_argmax_quantiles(
    probs, n_paths=200_000, seed=20230815, step=0.1, v_initial=16.0, v_cap=65536.0
):
    """Quantiles of argmax_v {B(v) - |v|/2} from simulated paths, and the horizon used.

    Each wing of B is a Gaussian random walk on a v-grid of ``step`` over
    [0, v_half]; v_half doubles from ``v_initial`` until 99.9% of the
    paths peak inside [-v_half/2, v_half/2]. Returns ([quantile per prob], v_half).
    """
    rng = np.random.default_rng(seed)
    v_half = v_initial
    while True:
        steps = int(round(v_half / step))
        grid = np.arange(1, steps + 1) * step
        samples = np.empty(n_paths)
        done = 0
        while done < n_paths:
            blk = min(max(256, 2_000_000 // steps), n_paths - done)
            best_val = np.zeros(blk)
            best_loc = np.zeros(blk)
            for sign in (1.0, -1.0):
                vals = np.cumsum(rng.standard_normal((blk, steps)) * np.sqrt(step), axis=1)
                vals -= 0.5 * grid
                idx = np.argmax(vals, axis=1)
                wing_val = vals[np.arange(blk), idx]
                better = wing_val > best_val
                best_val[better] = wing_val[better]
                best_loc[better] = sign * grid[idx[better]]
            samples[done : done + blk] = best_loc
            done += blk
        if np.mean(np.abs(samples) <= 0.5 * v_half) >= 0.999:
            return [float(np.quantile(samples, p)) for p in probs], v_half
        v_half *= 2.0
        if v_half > v_cap:
            raise RuntimeError(f"argmax horizon exceeded cap {v_cap}")


def reference_sup_bessel_samples(r, sim, trims):
    """``limits._sup_bessel_samples`` as a loop that allocates every block's arrays afresh."""
    m = sim.grid_points
    tau = np.arange(1, m + 1) / m
    windows = {eps: np.flatnonzero((tau >= eps) & (tau <= 1.0 - eps) & (tau < 1.0)) for eps in trims}
    scale = np.zeros(m)
    scale[:-1] = 1.0 / (tau[:-1] * (1.0 - tau[:-1]))
    rng = np.random.default_rng(np.random.SeedSequence([sim.seed, 7, r]))
    out = {eps: np.empty(sim.n_paths) for eps in trims}
    sqrt_dt = np.sqrt(1.0 / m)
    done = 0
    while done < sim.n_paths:
        blk = min(max(256, 2_000_000 // m), sim.n_paths - done)
        num = np.zeros((blk, m))
        for _ in range(r):
            j = np.cumsum(rng.standard_normal((blk, m)) * sqrt_dt, axis=1)
            bridge = j - tau * j[:, -1:]
            num += bridge * bridge
        stat = num * scale
        for eps, win in windows.items():
            out[eps][done : done + blk] = stat[:, win].max(axis=1)
        done += blk
    return out


@pytest.fixture
def cce_fit_calls(monkeypatch):
    """The date of every ``cce_fit`` call, made through any module's binding of it."""
    calls = []
    reference = estimator.cce_fit

    def counted(*args):
        calls.append(args[2])
        return reference(*args)

    for module in (estimator, wald):
        monkeypatch.setattr(module, "cce_fit", counted)
    return calls


@pytest.fixture
def pin_critical_values(monkeypatch):
    """``pin(c_alpha=None, sw=None)`` makes the interval read ``c_alpha`` and the sup-Wald test ``sw``
    as their critical value, in place of the argmax and sup-Bessel lookups."""

    def pin(c_alpha=None, sw=None):
        if c_alpha is not None:
            monkeypatch.setattr(estimator, "argmax_quantile", lambda prob: c_alpha)
        if sw is not None:
            monkeypatch.setattr(wald, "sup_bessel_critical", lambda r, eps, alpha: sw)

    return pin


@pytest.fixture
def rng():
    return np.random.default_rng(20240517)
