"""Break-date estimation: SSR profile, argmin date, confidence interval.

ESTIMATION projects (D, X̄) out of the time dimension; TESTING also
projects out the break-interacted proxies (D(b), X̄R(b)). ``cce_fit`` is
the slow reference fit at one date. ``ProfileEngine`` fits every date of
both modes from one layout, by Frisch-Waugh in sequence. Stage 1, once:
y and X partialled on Q0 = span(D, X̄), then ỹ on X̃; suffix sums over
t > b give the Gram of [ry, X̃, M_Q0 Z(b)] at each date (ESTIMATION).
Stage 2, per TESTING date: a basis Q1(b) of M_Q0 [D(b), X̄R(b)] takes its
per-unit products off that Gram. SSR(b) is a Schur complement; rows of
length NT are made only where the HAC or the interval reads them. A date
goes to ``cce_fit`` when its Gram is ill-conditioned, small or lost digits
to stage 2, its fit is near-exact or ties for the minimum SSR, or its
stage-2 rank is not the full proxy set's.
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
# Profile engine (see the module docstring).

_GUARD_COND = 1e8  # largest condition number of a Gram matrix solved directly
_GUARD_FLOOR = 1e-8  # smallest eigenvalue, or SSR, relative to its data's sum of squares
_GUARD_TIE = 1e-10  # relative gap below which two SSR values count as tied
_GUARD_CANCEL = 1e-6  # smallest diagonal of a TESTING Gram relative to the same entry before projection
# Bytes of the B x (1+r) x N*T stack of residuals and M_X̃ Z̃(b) that one
# chunk of dates may hold: all 8 dates of a 200 x 10 panel, two of a 100 x 240.
_CHUNK_BYTES = 1024 * 1024


def _trusted(gram: np.ndarray, scale) -> np.ndarray:
    """Whether normal equations on ``gram`` (or a stack of them) are safe.

    The strict bound also rejects an all-zero Gram, whose data scale is zero too.
    """
    vals = np.linalg.eigvalsh(gram)
    low, high = vals[..., 0], vals[..., -1]
    return (low >= _GUARD_FLOOR * np.asarray(scale)) & (high < _GUARD_COND * low)


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


@dataclass(frozen=True)
class SsrProfile:
    """SSR over the candidate set, with the first-argmin index."""

    candidate_dates: tuple
    ssr_values: tuple
    argmin_index: int

    @property
    def b_hat(self) -> int:
        return self.candidate_dates[self.argmin_index]


@dataclass(frozen=True)
class FitStack:
    """Fits at B dates, stacked along a leading axis.

    ``resid`` (B, T, N) and ``z_partialled`` (B, r, T, N), M_X̃ Z̃(b), are
    time-major, so that a period's rows are contiguous. ``design_gram`` is
    W̃'W̃ for W̃ = (X̃, Z̃(b)). ``excluded`` maps each date of the chunk that
    fails the rank condition beyond doubt to ``cce_fit``'s message.
    """

    dates: tuple
    beta: np.ndarray
    delta: np.ndarray
    resid: np.ndarray
    z_partialled: np.ndarray
    design_gram: np.ndarray
    excluded: dict = field(default_factory=dict)


class ProfileEngine:
    """The guarded fits of one panel and spec at any candidate dates, in either mode."""

    def __init__(self, panel: PanelData, spec: BreakSpec):
        n, t, k = panel.x.shape
        r = spec.n_breaking
        self.panel, self.spec, self._deferred = panel, spec, set()
        self._fixed = projection_columns(panel, spec, 0, ProjectorMode.ESTIMATION)  # D, X̄
        self._q0 = q0 = Projector.from_columns(self._fixed, t).q
        self._moving = np.hstack([self._fixed[:, :-k], self._fixed[:, -k:] @ spec.selection])  # D(b), X̄R(b) after b
        # Stage 1: [y, X, XR] time-major, then y and X partialled on Q0 and ỹ on X̃: [ry, X̃, XR].
        self._data = data = np.empty((1 + k + r, t, n))
        data[0], data[1 : 1 + k], data[1 + k :] = panel.y.T, panel.x.T, (panel.x @ spec.selection).T
        xs = data[1 : 1 + k]
        self._x_ss = np.einsum("ktn,ktn->", xs, xs)
        data[: 1 + k] -= q0 @ (q0.T @ data[: 1 + k])
        self._y_ss = np.einsum("tn,tn->", data[0], data[0])
        sxx = np.einsum("ktn,ltn->kl", xs, xs)
        self._ok = bool(_trusted(sxx, self._x_ss))  # else cce_fit decides every date
        self._c_y = np.linalg.solve(sxx, np.einsum("ktn,tn->k", xs, data[0])) if self._ok else np.zeros(k)
        data[0] -= np.einsum("k,ktn->tn", self._c_y, xs)
        # Index b of a suffix sum: the sum over t > b of a per-period cross-product.
        self._suffix = np.cumsum(np.einsum("ptn,qtn->tpq", data, data)[::-1], axis=0)[::-1]
        self._chunk = max(1, _CHUNK_BYTES // (8 * (1 + r) * t * n))

    def profile(self) -> SsrProfile:
        """ESTIMATION SSR(b) over the estimation candidates; ties and deferred dates from ``cce_fit``."""
        dates = estimation_candidates(self.spec, self.panel.n_periods)
        if not dates:
            raise EmptyCandidateSet(
                f"no estimation candidates for T={self.panel.n_periods}, r={self.spec.n_breaking}"
            )
        zs = slice(-self.spec.n_breaking, None)
        qz = np.cumsum(np.einsum("tq,rtn->tqrn", self._q0, self._data[zs])[::-1], axis=0)[::-1]
        qzz = np.zeros_like(self._suffix)  # sum_i (Q0'Z_i(b))'(Q0'Z_i(b)) in the Z block
        qzz[:, zs, zs] = np.einsum("tqrn,tqsn->trs", qz, qz)
        ok, values = self._solve(np.asarray(dates), False, qzz)

        def refit(j):
            values[j] = cce_fit(self.panel, self.spec, dates[j], ProjectorMode.ESTIMATION).ssr

        for j in np.flatnonzero(~ok):
            refit(j)
        low = values.min()
        tied = np.flatnonzero(values <= low + _GUARD_TIE * abs(low))
        if len(tied) > 1:
            for j in tied[ok[tied]]:
                refit(j)
            ok[tied] = False
        self._deferred = {dates[j] for j in np.flatnonzero(~ok)}  # where ``fit`` defers to cce_fit too
        return SsrProfile(tuple(dates), tuple(values.tolist()), int(np.argmin(values)))  # the first minimum

    def fit(self, b: int, mode: ProjectorMode) -> CceFit:
        """The fit at ``b``, or ``cce_fit``'s (and its error) where the engine deferred ``b``."""
        fits = next(self.fits([b], mode))
        if not fits.dates:
            return cce_fit(self.panel, self.spec, b, mode)
        return CceFit(
            break_date=b,
            delta=fits.delta[0],
            beta=fits.beta[0],
            residuals=fits.resid[0].T,
            z_partialled=fits.z_partialled[0].T,
            ssr=float(np.einsum("tn,tn->", fits.resid[0], fits.resid[0])),
            y_ss=float(self._y_ss),
            design_gram=fits.design_gram[0],
        )

    def fits(self, dates, mode: ProjectorMode):
        """Yield a FitStack of the guarded fits, with their rows, for each chunk of ``dates``."""
        for start in range(0, len(dates), self._chunk):
            yield self._solve(np.asarray(dates[start : start + self._chunk]), mode is ProjectorMode.TESTING)

    def _solve(self, dates: np.ndarray, testing: bool, qzz=None):
        """Frisch-Waugh solves on the stacked Grams of [ry, X̃, Z̃(b)]: a FitStack with rows or, given
        ``qzz`` (each ESTIMATION date's sum_i |Q0'Z_i(b)|^2 from suffix sums), (ok, SSR) without rows."""
        data, q0, m = self._data, self._q0, len(dates)
        p, t, n = data.shape
        r = self.spec.n_breaking
        xs, zs = slice(1, p - r), slice(p - r, None)
        post = np.arange(1, t + 1) > dates[:, None]
        full = self._suffix[dates]  # with Z(b) before partialling; [ry, X̃] sum over all t
        full[:, : p - r, : p - r] = self._suffix[0, : p - r, : p - r]
        ok = np.array([self._ok and (testing or b not in self._deferred) for b in dates.tolist()], dtype=bool)
        bases = np.broadcast_to(q0, (m, *q0.shape))
        if testing:  # stage 2: add Q1(b), a basis of M_Q0 [D(b), X̄R(b)], to Q0
            moving = self._moving * post[:, :, None]
            cols = np.concatenate([np.broadcast_to(self._fixed, (m, *self._fixed.shape)), moving], axis=2)
            s_all = np.linalg.svd(cols, compute_uv=False)
            cutoff = max(cols.shape[1:]) * np.finfo(float).eps * s_all[:, :1]  # Projector.from_columns's
            for _ in range(2):  # twice, so that Q1 is orthogonal to Q0 to working precision
                moving -= q0 @ (q0.T @ moving)
            q1, s, _ = np.linalg.svd(moving, full_matrices=False)
            ok &= np.sum(s_all > cutoff, axis=1) == q0.shape[1] + np.sum(s > cutoff, axis=1)
            bases = np.concatenate([bases, q1 * (s > cutoff)[:, None, :]], axis=2)
        if qzz is None:  # per unit, [Q0, Q1]'[ry, X̃, Z(b)]
            qt = bases.transpose(0, 2, 1)[:, None]
            v = np.concatenate([qt @ data[: p - r], (qt * post[:, None, None, :]) @ data[zs]], axis=1)
        gram = full - (np.einsum("mpjn,msjn->mps", v, v) if qzz is None else qzz[dates])
        sharp = (not testing) | (np.diagonal(gram, 0, 1, 2) >= _GUARD_CANCEL * np.diagonal(full, 0, 1, 2))
        ident = np.eye(p)  # what rejected slices solve against; their results are never used
        x_ok = ok & sharp[:, xs].all(axis=1) & _trusted(gram[:, xs, xs], self._x_ss)
        coef = np.linalg.solve(np.where(x_ok[:, None, None], gram[:, xs, xs], ident[xs, xs]), gram[:, xs, :])
        part = gram - gram[:, :, xs] @ coef
        rzz = 0.5 * (part[:, zs, zs] + part[:, zs, zs].transpose(0, 2, 1))
        z_ok = _trusted(rzz, np.trace(full[:, zs, zs], axis1=1, axis2=2))
        ok = x_ok & z_ok & sharp.all(axis=1)
        delta = np.linalg.solve(np.where(ok[:, None, None], rzz, ident[zs, zs]), part[:, zs, :1])[..., 0]
        ssr = part[:, 0, 0] - np.einsum("br,br->b", part[:, 0, zs], delta)  # the Schur complement
        ok &= ssr > _GUARD_FLOOR * self._y_ss
        if qzz is not None:
            return ok, ssr
        # Rows for the dates that passed, and for the TESTING dates left to _clear_rank.
        pick = np.flatnonzero(ok | (testing & x_ok & ~z_ok))
        m = len(pick)
        # Columns of W: the residual's weights [1, -beta, -delta] and M_X̃ Z̃'s [0, -C_xz, I_r].
        beta = coef[:, :, 0] - (coef[:, :, zs] @ delta[:, :, None])[..., 0]
        w = np.zeros((m, p, 1 + r))
        w[:, 0, 0], w[:, xs, 0], w[:, zs, 0] = 1.0, -beta[pick], -delta[pick]
        w[:, xs, 1:], w[:, zs, 1:] = -coef[pick][:, :, zs], ident[zs, zs]
        nq = bases.shape[2]
        qw = (w.transpose(0, 2, 1) @ v[pick].reshape(m, p, nq * n)).reshape(m, 1 + r, nq, n)
        out, flat = np.empty((m, 1 + r, t * n)), data.reshape(p, -1)
        for j, b in enumerate(dates[pick] * n):  # W_A'[ry, X̃] up to period b, W'[ry, X̃, Z] after it
            np.matmul(w[j, : p - r].T, flat[: p - r, :b], out=out[j, :, :b])
            np.matmul(w[j].T, flat[:, b:], out=out[j, :, b:])
            out[j] -= (bases[pick[j]] @ qw[j]).reshape(1 + r, -1)
        excluded = {}
        for j in np.flatnonzero(~ok[pick]):
            b = int(dates[pick[j]])
            rank = _clear_rank(out[j, 1:].reshape(r, -1), math.sqrt(np.trace(self._suffix[b, zs, zs])))
            if rank is not None and rank < r:
                excluded[b] = f"partialled break regressors have rank {rank} < r={r} at b={b}"
        keep = slice(None) if ok[pick].all() else np.flatnonzero(ok[pick])
        return FitStack(
            dates=tuple(dates[ok].tolist()),
            beta=beta[ok] + self._c_y,
            delta=delta[ok],
            resid=out[keep, 0].reshape(-1, t, n),
            z_partialled=out[keep, 1:].reshape(-1, r, t, n),
            design_gram=gram[ok, 1:, 1:],
            excluded=excluded,
        )


def estimate_breakpoint(panel: PanelData, spec: BreakSpec) -> SsrProfile:
    """Profile SSR(b) over B = [r, T-r-1]; the estimate is the first argmin.

    Ties are broken towards the smallest date, a deterministic choice
    needed for reproducibility. The values come from the profile engine;
    ``ssr_at`` is the reference for each of them.
    """
    return ProfileEngine(panel, spec).profile()


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

    The moments come from the ESTIMATION-mode ``cce_fit`` at ``b_hat``;
    ``fit_break`` reads the same fit from the profile engine.

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


def _interval(panel, spec, b_hat, alpha, c_alpha, engine=None):
    """The interval at ``b_hat``, with the fit and the moments it came from.

    The ESTIMATION fit at ``b_hat`` comes from ``engine`` when the caller
    has one, otherwise from ``cce_fit``.
    """
    if not (0.0 < alpha <= 1.0):
        raise InputError("alpha must lie in (0, 1]")
    if engine is None:
        fit = cce_fit(panel, spec, b_hat, ProjectorMode.ESTIMATION)
    else:
        fit = engine.fit(b_hat, ProjectorMode.ESTIMATION)
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
    come from the profile engine's TESTING fit at ``b``; where its guards
    defer or exclude ``b``, from ``cce_fit``, whose rank checks on X̃ and
    on M_X̃ Z̃(b) together are the rank condition on W̃ (and whose error is
    raised). The residuals lie in the range of the projection, so
    W̃_i' e_i = W_i' e_i with the raw W.
    """
    return _theta(panel, spec, ProfileEngine(panel, spec).fit(b, ProjectorMode.TESTING))


def _theta(panel, spec, fit: CceFit):
    theta = np.concatenate([fit.beta, fit.delta])
    w = np.concatenate([panel.x, z_regressors(panel, spec, fit.break_date)], axis=2)
    scores = np.einsum("itp,it->ip", w, fit.residuals)
    half = np.linalg.solve(fit.design_gram, scores.T @ scores)
    cov = np.linalg.solve(fit.design_gram, half.T).T
    return theta, cov


def fit_break(
    panel: PanelData,
    spec: BreakSpec,
    alpha: float = 0.05,
    c_alpha: float | None = None,
) -> BreakFit:
    """Full dating pipeline: profile, argmin, interval, coefficients, all from one engine."""
    engine = ProfileEngine(panel, spec)
    profile = engine.profile()
    b_hat = profile.b_hat
    interval, fit, (omega, phi, sigma_i) = _interval(panel, spec, b_hat, alpha, c_alpha, engine)
    lower, upper, clamped = interval
    theta, cov = _theta(panel, spec, engine.fit(b_hat, ProjectorMode.TESTING))
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
