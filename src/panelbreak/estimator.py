"""Break-date estimation: SSR profile, argmin date, confidence interval.

The estimator profiles the sum of squared CCE residuals over candidate
break dates. Two projection modes exist because the theory assigns them
different roles: ESTIMATION projects out (D, X̄) only, while TESTING
additionally projects out the break-interacted proxies (D(b), Z̄(b)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .exceptions import (
    DegenerateScale,
    EmptyCandidateSet,
    InputError,
    RankConditionFailure,
    RankDeficientDesign,
    ZeroBreakMagnitude,
)
from .limits import argmax_quantile
from .linalg import (
    Projector,
    compensated_sum_of_squares,
    cross_sectional_average,
)
from .panel import (
    BreakSpec,
    PanelData,
    estimation_candidates,
    post_break_mask,
    z_regressors,
)


class ProjectorMode(Enum):
    ESTIMATION = "estimation"
    TESTING = "testing"


def _rank_cutoff(shape, data_scale: float) -> float:
    """Singular values at or below this count as zero, tied to the raw data scale."""
    return max(shape) * np.finfo(float).eps * max(data_scale, np.finfo(float).tiny)


def _scaled_rank(singular_values, shape, data_scale: float) -> int:
    """Numerical rank with the cutoff tied to the raw data scale."""
    return int(np.sum(np.asarray(singular_values) > _rank_cutoff(shape, data_scale)))


def projection_columns(panel: PanelData, spec: BreakSpec, b: int, mode: ProjectorMode):
    """Factor-proxy columns to project out of the time dimension."""
    xbar = cross_sectional_average(panel)
    blocks = []
    if panel.d is not None:
        blocks.append(panel.d)
    if mode is ProjectorMode.TESTING:
        mask = post_break_mask(panel.n_periods, b).astype(float)[:, None]
        if panel.d is not None:
            blocks.append(panel.d * mask)
        blocks.append(xbar)
        blocks.append((xbar @ spec.selection) * mask)
    else:
        blocks.append(xbar)
    return np.hstack(blocks)


@dataclass(frozen=True)
class CceFit:
    """Partialled CCE regression at a single candidate date.

    ``residuals`` and ``z_partialled`` are indexed N x T (x r);
    ``z_partialled`` holds the rows of M_X̃ Z̃(b), which is what the HAC
    covariance estimator consumes. ``beta`` is the slope on X̃ in the
    joint fit, ``y_ss`` is ỹ'ỹ and ``design_gram`` is W̃'W̃ for the
    projected design W̃ = (X̃, Z̃(b)).
    """

    break_date: int
    delta: np.ndarray
    beta: np.ndarray
    residuals: np.ndarray
    z_partialled: np.ndarray
    ssr: float
    y_ss: float
    design_gram: np.ndarray


def cce_fit(panel: PanelData, spec: BreakSpec, b: int, mode: ProjectorMode) -> CceFit:
    """Two-step partialled fit of projected y on projected (X, Z(b)).

    Step one partials the projected regressors X̃ out of ỹ and Z̃(b);
    step two regresses the partialled response on the partialled
    break-interacted regressors. By Frisch-Waugh this matches the joint
    stacked OLS coefficients on (X̃, Z̃(b)).
    """
    n, t, k = panel.x.shape
    r = spec.n_breaking
    proj = Projector.from_columns(projection_columns(panel, spec, b, mode), t)
    q = proj.q
    yt = panel.y - (panel.y @ q) @ q.T
    xt = panel.x - np.einsum("inq,tq->int", np.tensordot(panel.x, q, axes=(1, 0)), q).transpose(0, 2, 1)
    z = z_regressors(panel, spec, b)
    zt = z - np.einsum("inq,tq->int", np.tensordot(z, q, axes=(1, 0)), q).transpose(0, 2, 1)
    ys = yt.reshape(-1)
    xs = xt.reshape(n * t, k)
    zs = zt.reshape(n * t, r)
    coef_y, _, _, s_x = np.linalg.lstsq(xs, np.column_stack([ys, zs]), rcond=None)
    # Rank must be judged against the scale of the *unprojected* data:
    # a design annihilated down to rounding noise still looks full rank
    # to lstsq, whose cutoff is relative to the design's own largest
    # singular value.
    rank = _scaled_rank(s_x, xs.shape, np.linalg.norm(panel.x))
    if rank < k:
        msg = f"projected regressors have rank {rank} < k={k} at b={b}"
        if mode is ProjectorMode.TESTING:
            raise RankConditionFailure(msg)
        raise RankDeficientDesign(msg)
    partialled = np.column_stack([ys, zs]) - xs @ coef_y
    ry = partialled[:, 0]
    rz = partialled[:, 1:]
    delta, _, _, s_z = np.linalg.lstsq(rz, ry, rcond=None)
    rank_z = _scaled_rank(s_z, rz.shape, np.linalg.norm(z))
    if rank_z < r:
        msg = f"partialled break regressors have rank {rank_z} < r={r} at b={b}"
        if mode is ProjectorMode.TESTING:
            raise RankConditionFailure(msg)
        raise RankDeficientDesign(msg)
    eps = ry - rz @ delta
    ssr = compensated_sum_of_squares(eps)
    ws = np.column_stack([xs, zs])
    return CceFit(
        break_date=b,
        delta=delta,
        beta=coef_y[:, 0] - coef_y[:, 1:] @ delta,
        residuals=eps.reshape(n, t),
        z_partialled=rz.reshape(n, t, r),
        ssr=ssr,
        y_ss=float(ys @ ys),
        design_gram=ws.T @ ws,
    )


def ssr_at(panel: PanelData, spec: BreakSpec, b: int, mode: ProjectorMode = ProjectorMode.ESTIMATION) -> float:
    """Sum of squared CCE residuals at candidate date ``b``."""
    return cce_fit(panel, spec, b, mode).ssr


# ---------------------------------------------------------------------------
# Profile engine: the fits at every candidate date of one panel, with the
# work that does not depend on b done once. Normal equations lose accuracy
# where the orthogonal solve in cce_fit does not, so any candidate on which
# the two could decide differently is handed to cce_fit: a Gram matrix that
# is ill-conditioned or small against the data it came from, a near-exact
# fit, or a near-tie for the minimum SSR.

_GUARD_COND = 1e8  # largest condition number of a Gram matrix solved directly
_GUARD_FLOOR = 1e-8  # smallest eigenvalue, or SSR, relative to its data's sum of squares
_GUARD_TIE = 1e-10  # relative gap below which two SSR values count as tied


def _trusted(gram: np.ndarray, scale) -> np.ndarray:
    """Whether normal equations on ``gram`` (or a stack of them) are safe.

    The strict bound also rejects an all-zero Gram, whose data scale is zero too.
    """
    vals = np.linalg.eigvalsh(gram)
    low, high = vals[..., 0], vals[..., -1]
    return (low >= _GUARD_FLOOR * np.asarray(scale)) & (high < _GUARD_COND * low)


def _suffix_sums(per_period: np.ndarray, dates, axis: int = 0) -> np.ndarray:
    """Sums over the periods t > b of per-period terms, for each date b."""
    flipped = np.flip(per_period, axis=axis)
    return np.take(np.flip(np.cumsum(flipped, axis=axis), axis=axis), dates, axis=axis)


@dataclass(frozen=True)
class _ArgminFit:
    """The ESTIMATION fit at the argmin date, as far as the interval reads it."""

    delta: np.ndarray
    residuals: np.ndarray  # N x T


def _estimation_profile(panel: PanelData, spec: BreakSpec, with_fit: bool = True):
    """SSR(b) over the estimation candidates, and the fit at the argmin.

    The ESTIMATION projector Q on span(D, X̄) does not depend on b, so y
    and X are partialled once: ry = M_X̃ ỹ. With Z(b) = XR 1(t > b),
    rz'ry = Z'ry, Z̃'X̃ = Z'X̃ and Z̃'Z̃ = Z'Z - sum_i (Q'z_i)'(Q'z_i) are
    suffix sums over t, and SSR(b) = ry'ry - g'A^{-1}g with g = rz'ry and
    A = rz'rz. At the argmin, delta = A^{-1}g and the residuals are
    ry - rz delta; where ``cce_fit`` decided that date, its fit is kept.
    Without ``with_fit`` the second value is None, unless a guard made it.
    """
    dates = estimation_candidates(spec, panel.n_periods)
    if not dates:
        raise EmptyCandidateSet(
            f"no estimation candidates for T={panel.n_periods}, r={spec.n_breaking}"
        )
    n, t, k = panel.x.shape
    x = panel.x
    q = Projector.from_columns(
        projection_columns(panel, spec, dates[0], ProjectorMode.ESTIMATION), t
    ).q
    yt = panel.y - (panel.y @ q) @ q.T
    xt = x - q @ (q.T @ x)
    sxx = np.einsum("itk,itl->kl", xt, xt)
    values = [math.nan] * len(dates)
    best = None  # (index, fit) of the reference fit with the lowest SSR, the first on ties

    def refit(j):
        nonlocal best
        fit = cce_fit(panel, spec, dates[j], ProjectorMode.ESTIMATION)
        values[j] = fit.ssr
        if best is None or (fit.ssr, j) < (best[1].ssr, best[0]):
            best = (j, fit)

    def profile():
        return SsrProfile(tuple(dates), tuple(values), int(np.argmin(values)))  # the first minimum

    if not _trusted(sxx, np.sum(x * x)):
        for j in range(len(dates)):
            refit(j)
        return profile(), best[1]
    ry = yt - xt @ np.linalg.solve(sxx, np.einsum("itk,it->k", xt, yt))
    z = x @ spec.selection
    g = _suffix_sums(np.einsum("itr,it->tr", z, ry), dates)
    zx = _suffix_sums(np.einsum("itr,itk->trk", z, xt), dates)
    zz = _suffix_sums(np.einsum("itr,its->trs", z, z), dates)
    qz = _suffix_sums(q[:, :, None] * z[:, :, None, :], dates, axis=1)
    sxx_inv_xz = np.linalg.solve(sxx, zx.reshape(-1, k).T).reshape(k, len(dates), -1)
    gram = zz - np.einsum("ibqr,ibqs->brs", qz, qz) - np.einsum("brk,kbs->brs", zx, sxx_inv_xz)
    gram = 0.5 * (gram + gram.transpose(0, 2, 1))
    trusted = _trusted(gram, np.trace(zz, axis1=1, axis2=2))
    ssr = np.full(len(dates), np.nan)
    fit_term = np.linalg.solve(gram[trusted], g[trusted][..., None])[..., 0]
    ssr[trusted] = compensated_sum_of_squares(ry) - np.einsum("br,br->b", g[trusted], fit_term)
    reference = ~(ssr > _GUARD_FLOOR * np.sum(yt * yt))  # also catches the NaNs
    values[:] = ssr.tolist()
    for j in np.flatnonzero(reference):
        refit(j)
    low = min(values)
    tied = [j for j, v in enumerate(values) if v <= low + _GUARD_TIE * abs(low)]
    if len(tied) > 1:
        for j in tied:
            if not reference[j]:
                refit(j)
    result = profile()
    j = result.argmin_index
    kept = best[1] if best is not None and best[0] == j else None
    if kept is not None or not with_fit:
        return result, kept
    zb = z * post_break_mask(t, dates[j])[:, None]
    rz = zb - q @ (q.T @ zb) - xt @ sxx_inv_xz[:, j, :]
    delta = np.linalg.solve(gram[j], g[j])
    return result, _ArgminFit(delta=delta, residuals=ry - rz @ delta)


def _clear_rank(rz: np.ndarray, data_scale: float):
    """The rank ``cce_fit`` gives ``rz``, or None when rounding could change it.

    The engine's M_X̃ Z̃(b) and ``cce_fit``'s differ by rounding, so a
    singular value within a factor of 10 of ``cce_fit``'s cutoff leaves
    the rank to ``cce_fit``.
    """
    cutoff = _rank_cutoff(rz.shape, data_scale)
    s = np.linalg.svd(rz, compute_uv=False)
    if np.any((s >= 0.1 * cutoff) & (s <= 10.0 * cutoff)):
        return None
    return int(np.sum(s > cutoff))


# Bytes of the B x (1+r) x N*T stack of residuals and M_X̃ Z̃(b) that one
# chunk of testing dates may hold: all 8 dates of a 200 x 10 panel, two of a
# 100 x 240.
_CHUNK_BYTES = 1024 * 1024
_GUARD_CANCEL = 1e-6  # smallest diagonal of Gram(b) relative to the same entry of F(b)'F(b)


@dataclass(frozen=True)
class FitStack:
    """TESTING-mode fits at B dates, stacked along a leading axis.

    ``resid`` (B, T*N) and ``z_partialled`` (B, r, T*N), the rows of
    M_X̃ Z̃(b), are time-major: column t*N + i is unit i in period t.
    ``y_ss`` is ỹ'ỹ and ``design_gram`` is W̃'W̃ for W̃ = (X̃, Z̃(b)).
    ``excluded`` maps each date of the chunk that fails the rank condition
    beyond doubt to ``cce_fit``'s message.
    """

    dates: tuple
    n_units: int
    beta: np.ndarray
    delta: np.ndarray
    resid: np.ndarray
    z_partialled: np.ndarray
    ssr: np.ndarray
    y_ss: np.ndarray
    design_gram: np.ndarray
    excluded: dict = field(default_factory=dict)


class TestingProfile:
    """TESTING-mode fits at the candidate dates of one panel, a chunk at a time.

    F = [y, X, XR] is laid out once as (1+k+r, T, N), and X̄, X̄R and the
    suffix sums over t of P_t = sum_i f_it f_it' are formed once: an entry
    of F(b)'F(b) that touches a Z column sums over t > b, any other over
    all t. A chunk of dates takes one stacked SVD of its proxy columns
    (each slice with the rank cutoff of ``Projector.from_columns``, dropped
    directions zeroed) and the products Q_b'F(b) on the unmasked data, and
    solves Frisch-Waugh on Gram(b) = F(b)'F(b) - (Q_b'F)'(Q_b'F). The
    residual and M_X̃ Z̃(b) are then W'F(b) - Q_b (Q_b'F W) for the fitted
    weights W; no date projects the data. A date that a guard rejects, or
    whose Gram lost digits to the subtraction, is left out of the stack for
    ``cce_fit`` to decide, unless its M_X̃ Z̃(b) is rank-deficient beyond
    doubt (``_clear_rank``).
    """

    def __init__(self, panel: PanelData, spec: BreakSpec):
        n, t, k = self._shape = panel.x.shape
        r = spec.n_breaking
        self._data = data = np.empty((1 + k + r, t, n))
        data[0], data[1 : 1 + k], data[1 + k :] = panel.y.T, panel.x.T, (panel.x @ spec.selection).T
        self._suffix = _suffix_sums(data.transpose(1, 0, 2) @ data.transpose(1, 2, 0), np.arange(t))
        self._x_ss = np.trace(self._suffix[0, 1 : 1 + k, 1 : 1 + k])
        self._z_ss = np.trace(self._suffix[:, 1 + k :, 1 + k :], axis1=1, axis2=2)  # index b: over t > b
        in_z = np.arange(1 + k + r) > k
        self._touches_z = in_z[:, None] | in_z
        xbar = cross_sectional_average(panel)
        d = np.empty((t, 0)) if panel.d is None else panel.d
        # The TESTING proxies of projection_columns: D, D(b), X̄, X̄R(b).
        self._proxies = np.hstack([d, d, xbar, xbar @ spec.selection])
        self._masked = np.repeat([False, True, False, True], [d.shape[1], d.shape[1], k, r])
        self._chunk = max(1, _CHUNK_BYTES // (8 * (1 + r) * t * n))

    def fits(self, dates):
        """Yield a FitStack of the guarded fits for each chunk of ``dates``."""
        for start in range(0, len(dates), self._chunk):
            yield self._fit_chunk(np.asarray(dates[start : start + self._chunk]))

    def _fit_chunk(self, dates: np.ndarray) -> FitStack:
        n, t, k = self._shape
        data, m, p = self._data, len(dates), self._data.shape[0]
        xs, zs = slice(1, 1 + k), slice(1 + k, None)
        post = np.arange(1, t + 1) > dates[:, None]
        cols = self._proxies * np.where(self._masked, post[:, :, None], 1.0)
        u, s, _ = np.linalg.svd(cols, full_matrices=False)
        q = u * (s > max(cols.shape[1:]) * np.finfo(float).eps * s[:, :1])[:, None, :]
        qt = q.transpose(0, 2, 1)[:, None]
        qf = np.concatenate([qt @ data[: 1 + k], (qt * post[:, None, None, :]) @ data[zs]], axis=1).reshape(m, p, -1)
        full = np.where(self._touches_z, self._suffix[dates], self._suffix[0])  # F(b)'F(b)
        gram = full - qf @ qf.transpose(0, 2, 1)
        sharp = np.diagonal(gram, 0, 1, 2) >= _GUARD_CANCEL * np.diagonal(full, 0, 1, 2)
        ident = np.eye(p)  # what rejected slices solve against; they are dropped below
        x_ok = sharp[:, xs].all(axis=1) & _trusted(gram[:, xs, xs], self._x_ss)
        coef = np.linalg.solve(np.where(x_ok[:, None, None], gram[:, xs, xs], ident[xs, xs]), gram[:, xs, :])
        part = gram - gram[:, :, xs] @ coef
        rzz = 0.5 * (part[:, zs, zs] + part[:, zs, zs].transpose(0, 2, 1))
        z_ok = _trusted(rzz, self._z_ss[dates])
        ok = x_ok & z_ok & sharp.all(axis=1)
        delta = np.linalg.solve(np.where(ok[:, None, None], rzz, ident[zs, zs]), part[:, zs, :1])[..., 0]
        beta = coef[:, :, 0] - (coef[:, :, zs] @ delta[:, :, None])[..., 0]
        # Columns of W: the residual's weights [1, -beta, -delta] and M_X̃ Z̃'s [0, -C_xz, I_r].
        w = np.zeros((m, p, p - k))
        w[:, 0, 0], w[:, xs, 0], w[:, zs, 0] = 1.0, -beta, -delta
        w[:, xs, 1:], w[:, zs, 1:] = -coef[:, :, zs], ident[zs, zs]
        qfw = (w.transpose(0, 2, 1) @ qf).reshape(m, p - k, -1, n)
        out, flat = np.empty((m, p - k, t * n)), data.reshape(p, -1)
        for j, b in enumerate(dates * n):  # W_A'[y, X] up to period b, W'F after it, less Q_b Q_b'F W
            np.matmul(w[j, : 1 + k].T, flat[: 1 + k, :b], out=out[j, :, :b])
            np.matmul(w[j].T, flat[:, b:], out=out[j, :, b:])
            out[j] -= (q[j] @ qfw[j]).reshape(p - k, -1)
        resid, rz = out[:, 0], out[:, 1:]
        ssr = (resid[:, None, :] @ resid[:, :, None])[:, 0, 0]
        ok &= ssr > _GUARD_FLOOR * gram[:, 0, 0]
        excluded = {}
        for j in np.flatnonzero(x_ok & ~z_ok):
            b, r = int(dates[j]), rz.shape[1]
            rank = _clear_rank(rz[j], math.sqrt(self._z_ss[b]))
            if rank is not None and rank < r:
                excluded[b] = f"partialled break regressors have rank {rank} < r={r} at b={b}"
        keep = slice(None) if ok.all() else np.flatnonzero(ok)
        return FitStack(
            dates=tuple(dates[keep].tolist()),
            n_units=n,
            beta=beta[keep],
            delta=delta[keep],
            resid=resid[keep],
            z_partialled=rz[keep],
            ssr=ssr[keep],
            y_ss=gram[keep, 0, 0],
            design_gram=gram[keep, 1:, 1:],
            excluded=excluded,
        )


@dataclass(frozen=True)
class SsrProfile:
    """SSR over the candidate set, with the first-argmin index."""

    candidate_dates: tuple
    ssr_values: tuple
    argmin_index: int

    @property
    def b_hat(self) -> int:
        return self.candidate_dates[self.argmin_index]


def estimate_breakpoint(panel: PanelData, spec: BreakSpec) -> SsrProfile:
    """Profile SSR(b) over B = [r, T-r-1]; the estimate is the first argmin.

    Ties are broken towards the smallest date, a deterministic choice
    needed for reproducibility. The values come from the profile engine;
    ``ssr_at`` is the reference for each of them.
    """
    return _estimation_profile(panel, spec, with_fit=False)[0]


def moment_estimates(panel: PanelData, fit: CceFit):
    """Plug-in moment matrices for the break-date limit distribution.

    Returns (omega_x_hat, phi_x_hat, sigma_eps_i): the average outer
    moment of the raw regressors, its residual-variance-weighted version
    and the per-unit residual variances, taken from the supplied fit.
    """
    n, t, _ = panel.x.shape
    gram = np.einsum("itp,itq->ipq", panel.x, panel.x)
    omega = gram.sum(axis=0) / (n * t)
    sigma_i = np.einsum("it,it->i", fit.residuals, fit.residuals) / t
    phi = np.einsum("i,ipq->pq", sigma_i, gram) / (n * t)
    return omega, phi, sigma_i


def interval_half_width(
    delta: np.ndarray,
    selection: np.ndarray,
    omega_x: np.ndarray,
    phi_x: np.ndarray,
    n_units: int,
    c_alpha: float,
) -> int:
    """Half-width floor(c * num / (N * den^2)) + 1 of the date interval.

    num and den^2 both scale as |delta|^4, so the forms are taken on
    delta / max|delta| and the ratio is rescaled once; the raw forms
    under- or overflow long before the ratio does.
    """
    scale = float(np.max(np.abs(delta)))
    if scale == 0.0:
        raise ZeroBreakMagnitude("estimated break size is zero; interval is infinite")
    unit = delta / scale
    den = float(unit @ (selection.T @ omega_x @ selection) @ unit)
    num = float(unit @ (selection.T @ phi_x @ selection) @ unit)
    if den <= 0.0:
        raise DegenerateScale("quadratic form in omega_x is not positive")
    ratio = c_alpha * (num / scale / scale) / den / den / n_units
    if not math.isfinite(ratio):
        raise DegenerateScale(f"interval half-width {ratio} is not finite")
    return int(math.floor(ratio)) + 1


@dataclass(frozen=True)
class BreakFit:
    """Estimated break date with its confidence interval and coefficients."""

    b_hat: int
    delta_hat: np.ndarray
    theta_hat: np.ndarray
    theta_cov: np.ndarray
    omega_x_hat: np.ndarray
    phi_x_hat: np.ndarray
    sigma_eps_i: np.ndarray
    ci_lower: int
    ci_upper: int
    alpha: float
    ssr_profile: SsrProfile
    ci_clamped: bool = False


def confidence_interval(
    panel: PanelData,
    spec: BreakSpec,
    b_hat: int,
    alpha: float,
    c_alpha: float | None = None,
):
    """Confidence interval for the true break date at level 1 - alpha.

    The moments come from the ESTIMATION-mode ``cce_fit`` at ``b_hat``,
    the same fit ``fit_break`` uses.

    Parameters
    ----------
    c_alpha : float, optional
        The (1 - alpha/2) percentile of the argmax limit law. Looked up
        via :mod:`panelbreak.limits` when omitted.

    Returns
    -------
    (lower, upper, clamped) with endpoints clamped to [1, T-1].
    """
    return _interval(panel, spec, b_hat, alpha, c_alpha)[0]


def _interval(panel, spec, b_hat, alpha, c_alpha, fit=None):
    """The interval at ``b_hat``, with the fit and the moments it came from.

    ``fit`` is the ESTIMATION fit at ``b_hat`` when the caller has it (the
    second value of ``_estimation_profile``); otherwise ``cce_fit`` makes it.
    """
    if not (0.0 < alpha <= 1.0):
        raise InputError("alpha must lie in (0, 1]")
    if fit is None:
        fit = cce_fit(panel, spec, b_hat, ProjectorMode.ESTIMATION)
    omega, phi, sigma_i = moment_estimates(panel, fit)
    if c_alpha is None:
        c_alpha = argmax_quantile(1.0 - alpha / 2.0)
    w = interval_half_width(fit.delta, spec.selection, omega, phi, panel.n_units, c_alpha)
    lower, upper = b_hat - w, b_hat + w
    t_max = panel.n_periods - 1
    interval = (max(1, lower), min(t_max, upper), lower < 1 or upper > t_max)
    return interval, fit, (omega, phi, sigma_i)


def estimate_theta(panel: PanelData, spec: BreakSpec, b: int):
    """Joint coefficient estimate theta = (beta', delta')' at date ``b``.

    Uses the TESTING-mode projection (the break-interacted proxies must
    be projected out for the slope estimator to be asymptotically
    normal). The covariance is the unit-clustered sandwich
    (W̃'W̃)^{-1} [sum_i W̃_i' e_i e_i' W̃_i] (W̃'W̃)^{-1}. Theta, e and W̃'W̃
    come from the testing engine's fit at ``b``; where its guards defer or
    exclude ``b``, from ``cce_fit``, whose rank checks on X̃ and on
    M_X̃ Z̃(b) together are the rank condition on W̃ (and whose error is
    raised). The residuals lie in the range of the projection, so
    W̃_i' e_i = W_i' e_i with the raw W.
    """
    fits = next(TestingProfile(panel, spec).fits([b]))
    if fits.dates:
        n, t = panel.y.shape
        beta, delta, resid, gram = fits.beta[0], fits.delta[0], fits.resid[0].reshape(t, n).T, fits.design_gram[0]
    else:
        fit = cce_fit(panel, spec, b, ProjectorMode.TESTING)
        beta, delta, resid, gram = fit.beta, fit.delta, fit.residuals, fit.design_gram
    theta = np.concatenate([beta, delta])
    w = np.concatenate([panel.x, z_regressors(panel, spec, b)], axis=2)
    scores = np.einsum("itp,it->ip", w, resid)
    half = np.linalg.solve(gram, scores.T @ scores)
    cov = np.linalg.solve(gram, half.T).T
    return theta, cov


def fit_break(
    panel: PanelData,
    spec: BreakSpec,
    alpha: float = 0.05,
    c_alpha: float | None = None,
) -> BreakFit:
    """Full dating pipeline: profile, argmin, interval, coefficients."""
    profile, argmin_fit = _estimation_profile(panel, spec)
    b_hat = profile.b_hat
    interval, fit, (omega, phi, sigma_i) = _interval(panel, spec, b_hat, alpha, c_alpha, argmin_fit)
    lower, upper, clamped = interval
    theta, cov = estimate_theta(panel, spec, b_hat)
    return BreakFit(
        b_hat=b_hat,
        delta_hat=fit.delta,
        theta_hat=theta,
        theta_cov=cov,
        omega_x_hat=omega,
        phi_x_hat=phi,
        sigma_eps_i=sigma_i,
        ci_lower=lower,
        ci_upper=upper,
        alpha=alpha,
        ssr_profile=profile,
        ci_clamped=clamped,
    )
