"""Break-date estimation: SSR profile, argmin date, confidence interval.

ESTIMATION projects (D, X̄) out of the time dimension; TESTING also
projects out the break-interacted proxies (D(b), X̄R(b)). ``cce_fit`` is
the slow reference fit at one date. ``ProfileEngine`` fits a stack of
panels that share N, T, k and the spec (one panel is a stack of one) at
any (panel, date) pairs of both modes, by Frisch-Waugh in sequence.
Stage 1, once per panel: y and X partialled on Q0 = span(D, X̄), then ỹ on
X̃; suffix sums over t > b give the Gram of [ry, X̃, M_Q0 Z(b)] at each
date (ESTIMATION). Stage 2, per TESTING pair: ``cce_fit``'s own basis Q(b)
of [D, D(b), X̄, X̄R(b)], whose span holds Q0's, takes its per-unit
products off that Gram. Every basis comes from ``linalg.basis``. SSR(b)
is a Schur complement; rows of length NT are made only where the HAC or
the interval reads them. A pair goes to ``cce_fit`` when its Gram is
ill-conditioned, small or lost digits to stage 2, or its fit is
near-exact or ties for its panel's minimum SSR. A panel's numbers do not
depend on its stack or chunk, unless its proxy set has a lower rank than
another's there, when its basis carries zero columns. A chunk of rows
holds the dates of one panel, or one date each of many. One engine serves
a window of the sequential search: its sup-Wald, then ``_break_fit``.
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
    PanelBreakError,
    RankConditionFailure,
    RankDeficientDesign,
    ZeroBreakMagnitude,
)
from .limits import argmax_quantile
from .linalg import basis, compensated_sum_of_squares, cross_sectional_average
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
    post = post_break_mask(panel.n_periods, b) if mode is ProjectorMode.TESTING else None
    return _proxies(panel.d, cross_sectional_average(panel), spec.selection, post)


def _proxies(d, xbar, selection, post=None):
    """[D, X̄], or [D, D(b), X̄, X̄R(b)] given the post-break mask ``post``: one set (T, .)
    or a stack (..., T, .) of them; ``d`` may be None."""
    if post is None:
        return xbar if d is None else np.concatenate([d, xbar], axis=-1)
    mask = post[..., None]
    blocks = [] if d is None else [d, d * mask]
    return np.concatenate(blocks + [xbar, (xbar @ selection) * mask], axis=-1)


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
    failure = RankConditionFailure if mode is ProjectorMode.TESTING else RankDeficientDesign
    q = basis(projection_columns(panel, spec, b, mode))
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
        raise failure(f"projected regressors have rank {rank} < k={k} at b={b}")
    partialled = np.column_stack([ys, zs]) - xs @ coef_y
    ry = partialled[:, 0]
    rz = partialled[:, 1:]
    delta, _, _, s_z = np.linalg.lstsq(rz, ry, rcond=None)
    rank_z = _scaled_rank(s_z, rz.shape, np.linalg.norm(z))
    if rank_z < r:
        raise failure(f"partialled break regressors have rank {rank_z} < r={r} at b={b}")
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
# Bytes of the B x (1+r) x N*T stack of residuals and M_X̃ Z̃(b) that one chunk of
# (panel, date) pairs may hold: all 8 dates of a 200 x 10 panel, two of a 100 x 240.
_CHUNK_BYTES = 1024 * 1024


def _attempt(func, *args):
    """``func(*args)``, or the package error it raised, kept without the traceback that holds its frames."""
    try:
        return func(*args)
    except PanelBreakError as err:
        return err.with_traceback(None)


def _unwrap(outcome):
    """The value of an ``_attempt`` outcome, or its error raised."""
    if isinstance(outcome, PanelBreakError):
        try:
            raise outcome
        finally:  # else the error's traceback holds this frame, which holds the error: a cycle
            del outcome
    return outcome


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
    """Fits at B (panel, date) ``pairs``, stacked along a leading axis.

    ``resid`` (B, T, N) and ``z_partialled`` (B, r, T, N), M_X̃ Z̃(b), are
    time-major, so that a period's rows are contiguous. ``design_gram`` is
    W̃'W̃ for W̃ = (X̃, Z̃(b)). ``excluded`` maps each pair of the chunk that
    fails the rank condition beyond doubt to ``cce_fit``'s message.
    """

    pairs: tuple
    beta: np.ndarray
    delta: np.ndarray
    resid: np.ndarray
    z_partialled: np.ndarray
    design_gram: np.ndarray
    excluded: dict = field(default_factory=dict)


class ProfileEngine:
    """The guarded fits of a stack of panels, which share N, T, k and the spec, at (panel, date) pairs."""

    def __init__(self, panels, spec: BreakSpec):
        self.panels, self.spec = tuple(panels), spec
        n, t, k = self.panels[0].x.shape
        r = spec.n_breaking
        self._deferred = np.zeros((len(self.panels), t), dtype=bool)  # [s, b]: panel s's date b goes to cce_fit
        self._d = None if self.panels[0].d is None else np.stack([p.d for p in self.panels])
        self._xbar = np.stack([cross_sectional_average(p) for p in self.panels])
        self._q0 = q0 = basis(_proxies(self._d, self._xbar, spec.selection))  # span(D, X̄)
        # Stage 1: [y, X, XR] time-major, then y and X partialled on Q0 and ỹ on X̃: [ry, X̃, XR].
        self._data = data = np.empty((len(self.panels), 1 + k + r, t, n))
        for s, panel in enumerate(self.panels):
            data[s, 0], data[s, 1 : 1 + k], data[s, 1 + k :] = panel.y.T, panel.x.T, (panel.x @ spec.selection).T
        xs = data[:, 1 : 1 + k]
        self._x_ss = np.einsum("sktn,sktn->s", xs, xs)
        data[:, : 1 + k] -= q0[:, None] @ (q0.transpose(0, 2, 1)[:, None] @ data[:, : 1 + k])
        self._y_ss = np.einsum("stn,stn->s", data[:, 0], data[:, 0])
        sxx = np.einsum("sktn,sltn->skl", xs, xs)
        self._ok = ok = _trusted(sxx, self._x_ss)  # else cce_fit decides every date of the panel
        sxy = np.einsum("sktn,stn->sk", xs, data[:, 0])[..., None]
        c_y = np.linalg.solve(np.where(ok[:, None, None], sxx, np.eye(k)), sxy)
        self._c_y = np.where(ok[:, None], c_y[..., 0], 0.0)
        data[:, 0] -= np.einsum("sk,sktn->stn", self._c_y, xs)
        # Index [s, b] of a suffix sum: panel s's sum over t > b of a per-period cross-product.
        self._suffix = np.cumsum(np.einsum("sptn,sqtn->stpq", data, data)[:, ::-1], axis=1)[:, ::-1]
        self._chunk = max(1, _CHUNK_BYTES // (8 * (1 + r) * t * n))  # (panel, date) pairs

    def profiles(self) -> list:
        """Each panel's ESTIMATION SSR(b) over the estimation candidates, or the error it raised;
        ties and deferred dates take ``cce_fit``'s value."""
        t, r = self.panels[0].n_periods, self.spec.n_breaking
        dates = estimation_candidates(self.spec, t)
        if not dates:
            return [EmptyCandidateSet(f"no estimation candidates for T={t}, r={r}")] * len(self.panels)
        zs = slice(-r, None)
        qz = np.cumsum(np.einsum("stq,satn->stqan", self._q0, self._data[:, zs])[:, ::-1], axis=1)[:, ::-1]
        qzz = np.zeros_like(self._suffix)  # sum_i (Q0'Z_i(b))'(Q0'Z_i(b)) in the Z block
        qzz[..., zs, zs] = np.einsum("stqan,stqbn->stab", qz, qz)
        reps = np.arange(len(self.panels))
        ok, values = self._solve(reps, np.tile(dates, (len(reps), 1)), False, qzz)
        return [_attempt(self._profile, s, dates, ok[s], values[s]) for s in reps.tolist()]

    def _profile(self, s: int, dates: list, ok: np.ndarray, values: np.ndarray) -> SsrProfile:
        def refit(j):
            values[j] = cce_fit(self.panels[s], self.spec, dates[j], ProjectorMode.ESTIMATION).ssr

        for j in np.flatnonzero(~ok):
            refit(j)
        low = values.min()
        tied = np.flatnonzero(values <= low + _GUARD_TIE * abs(low))
        if len(tied) > 1:
            for j in tied[ok[tied]]:
                refit(j)
            ok[tied] = False
        self._deferred[s, np.asarray(dates)[~ok]] = True  # where ``fit`` defers to cce_fit too
        return SsrProfile(tuple(dates), tuple(values.tolist()), int(np.argmin(values)))  # the first minimum

    def fit(self, reps, dates, mode: ProjectorMode) -> list:
        """Panel ``reps[i]``'s fit at ``dates[i]``, or ``cce_fit``'s (or its error) where the engine deferred it."""
        got = {}
        for fits in self.fits(reps, np.reshape(dates, (-1, 1)), mode):
            for j, (s, b) in enumerate(fits.pairs):
                got[s, b] = CceFit(
                    break_date=b, delta=fits.delta[j], beta=fits.beta[j], residuals=fits.resid[j].T,
                    z_partialled=fits.z_partialled[j].T, ssr=float(np.einsum("tn,tn->", fits.resid[j], fits.resid[j])),
                    y_ss=float(self._y_ss[s]), design_gram=fits.design_gram[j],
                )
        return [got.get((s, b)) or _attempt(cce_fit, self.panels[s], self.spec, b, mode) for s, b in zip(reps, dates)]

    def fits(self, reps, dates, mode: ProjectorMode):
        """Yield a FitStack of the guarded fits, with their rows, of panel ``reps[i]`` at each of
        ``dates[i]``, a chunk of pairs at a time: the dates of one panel, chunked as for a lone
        panel, or one date of each of many panels, so no chunk holds more rows than a lone panel's."""
        reps, dates, testing = np.asarray(reps, dtype=int), np.asarray(dates, dtype=int), mode is ProjectorMode.TESTING
        per = self._chunk if dates.shape[1] == 1 else 1  # panels per chunk
        for i in range(0, len(reps), per):
            for j in range(0, dates.shape[1], self._chunk):
                yield self._solve(reps[i : i + per], dates[i : i + per, j : j + self._chunk], testing)

    def _solve(self, reps: np.ndarray, dates: np.ndarray, testing: bool, qzz=None):
        """Frisch-Waugh solves on the stacked Grams of [ry, X̃, Z̃(b)] of panel reps[i] at each of dates[i]:
        a FitStack with rows or, given ``qzz`` (each ESTIMATION pair's sum_i |Q0'Z_i(b)|^2 from suffix
        sums), (ok, SSR) in the shape of ``dates``, without rows."""
        shape, data, m = dates.shape, self._data, dates.size
        at, dates = np.repeat(reps, shape[1]), dates.ravel()  # each pair's panel and date
        (p, t, n), r = data.shape[1:], self.spec.n_breaking
        xs, zs = slice(1, p - r), slice(p - r, None)
        post = np.arange(1, t + 1) > dates[:, None]
        full = self._suffix[at, dates]  # with Z(b) before partialling; [ry, X̃] sum over all t
        full[:, : p - r, : p - r] = self._suffix[at, 0, : p - r, : p - r]
        ok = self._ok[at] & (testing | ~self._deferred[at, dates])
        if testing:  # stage 2: cce_fit's basis Q(b) of [D, D(b), X̄, X̄R(b)]; its span holds Q0's
            d = None if self._d is None else self._d[at]
            bases = basis(_proxies(d, self._xbar[at], self.spec.selection, post))
        elif qzz is None:
            bases = self._q0[at]
        if qzz is None:  # per unit, Q'[ry, X̃, Z(b)], a panel at a time
            qt = bases.transpose(0, 2, 1).reshape(*shape, 1, -1, t)
            v = np.empty((*shape, p, bases.shape[2], n))
            for i, s in enumerate(reps.tolist()):
                np.matmul(qt[i], data[s, : p - r], out=v[i, :, : p - r])
                np.matmul(qt[i] * post.reshape(*shape, 1, 1, t)[i], data[s, zs], out=v[i, :, zs])
            v = v.reshape(m, p, -1, n)
        gram = full - (np.einsum("mpjn,msjn->mps", v, v) if qzz is None else qzz[at, dates])
        sharp = (not testing) | (np.diagonal(gram, 0, 1, 2) >= _GUARD_CANCEL * np.diagonal(full, 0, 1, 2))
        ident = np.eye(p)  # what rejected slices solve against; their results are never used
        x_ok = ok & sharp[:, xs].all(axis=1) & _trusted(gram[:, xs, xs], self._x_ss[at])
        coef = np.linalg.solve(np.where(x_ok[:, None, None], gram[:, xs, xs], ident[xs, xs]), gram[:, xs, :])
        part = gram - gram[:, :, xs] @ coef
        rzz = 0.5 * (part[:, zs, zs] + part[:, zs, zs].transpose(0, 2, 1))
        z_ok = _trusted(rzz, np.trace(full[:, zs, zs], axis1=1, axis2=2))
        ok = x_ok & z_ok & sharp.all(axis=1)
        delta = np.linalg.solve(np.where(ok[:, None, None], rzz, ident[zs, zs]), part[:, zs, :1])[..., 0]
        ssr = part[:, 0, 0] - np.einsum("br,br->b", part[:, 0, zs], delta)  # the Schur complement
        ok &= ssr > _GUARD_FLOOR * self._y_ss[at]
        if qzz is not None:
            return ok.reshape(shape), ssr.reshape(shape)
        # Rows for the pairs that passed, then for the TESTING pairs left to _clear_rank.
        pick = np.concatenate([np.flatnonzero(ok), np.flatnonzero(testing & x_ok & ~z_ok)])
        # Columns of W: the residual's weights [1, -beta, -delta] and M_X̃ Z̃'s [0, -C_xz, I_r].
        beta = coef[:, :, 0] - (coef[:, :, zs] @ delta[:, :, None])[..., 0]
        w = np.zeros((m, p, 1 + r))  # zero for the pairs without rows
        w[pick, 0, 0], w[pick, xs, 0], w[pick, zs, 0] = 1.0, -beta[pick], -delta[pick]
        w[pick, xs, 1:], w[pick, zs, 1:] = -coef[pick][:, :, zs], ident[zs, zs]
        qw = (w.transpose(0, 2, 1) @ v.reshape(m, p, -1)).reshape(m, 1 + r, -1, n)
        del v  # before the rows are made
        out = np.empty((len(pick), 1 + r, t * n))
        for j, i in enumerate(pick.tolist()):
            flat, b = data[at[i]].reshape(p, -1), dates[i] * n  # W_A'[ry, X̃] up to period b, W'[ry, X̃, Z] after
            np.matmul(w[i, : p - r].T, flat[: p - r, :b], out=out[j, :, :b])
            np.matmul(w[i].T, flat[:, b:], out=out[j, :, b:])
            out[j] -= (bases[i] @ qw[i]).reshape(1 + r, -1)
        n_ok, excluded = int(ok.sum()), {}
        for j, i in enumerate(pick[n_ok:].tolist(), n_ok):
            s, b = int(at[i]), int(dates[i])
            rank = _clear_rank(out[j, 1:].reshape(r, -1), math.sqrt(np.trace(self._suffix[s, b, zs, zs])))
            if rank is not None and rank < r:
                excluded[s, b] = f"partialled break regressors have rank {rank} < r={r} at b={b}"
        return FitStack(
            pairs=tuple(zip(at[ok].tolist(), dates[ok].tolist())), beta=beta[ok] + self._c_y[at[ok]], delta=delta[ok],
            resid=out[:n_ok, 0].reshape(-1, t, n), z_partialled=out[:n_ok, 1:].reshape(-1, r, t, n),
            design_gram=gram[ok, 1:, 1:], excluded=excluded,
        )


def estimate_breakpoint(panel: PanelData, spec: BreakSpec) -> SsrProfile:
    """Profile SSR(b) over B = [r, T-r-1]; the estimate is the first argmin.

    Ties are broken towards the smallest date, a deterministic choice
    needed for reproducibility. The values come from the profile engine;
    ``ssr_at`` is the reference for each of them.
    """
    return _unwrap(ProfileEngine([panel], spec).profiles()[0])


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


def _interval(panel, spec, b_hat, alpha, c_alpha, fit):
    """(lower, upper, clamped), the level 1 - alpha interval at ``b_hat`` clamped to [1, T-1], with the
    ESTIMATION ``fit`` there (or its error) and the moments from it. ``c_alpha``, the (1 - alpha/2)
    percentile of the argmax limit law, is looked up when None."""
    if not (0.0 < alpha <= 1.0):
        raise InputError("alpha must lie in (0, 1]")
    fit = _unwrap(fit)
    omega, phi, sigma_i = moment_estimates(panel, fit)
    if c_alpha is None:
        c_alpha = argmax_quantile(1.0 - alpha / 2.0)
    w = interval_half_width(fit.delta, spec.selection, omega, phi, panel.n_units, c_alpha)
    lower, upper = b_hat - w, b_hat + w
    t_max = panel.n_periods - 1
    interval = (max(1, lower), min(t_max, upper), lower < 1 or upper > t_max)
    return interval, fit, (omega, phi, sigma_i)


def _intervals(engine: ProfileEngine, alpha, c_alpha) -> list:
    """Each panel's (profile, interval, fit at b̂, moments), or the error it raised.

    The ESTIMATION fits at the panels' argmins come from one stacked solve.
    """
    profiles = engine.profiles()
    done = [s for s, profile in enumerate(profiles) if isinstance(profile, SsrProfile)]
    fits = dict(zip(done, engine.fit(done, [profiles[s].b_hat for s in done], ProjectorMode.ESTIMATION)))

    def interval(s):
        b_hat = _unwrap(profiles[s]).b_hat
        return profiles[s], *_interval(engine.panels[s], engine.spec, b_hat, alpha, c_alpha, fits[s])

    return [_attempt(interval, s) for s in range(len(profiles))]


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
    return _theta(panel, spec, _unwrap(ProfileEngine([panel], spec).fit([0], [b], ProjectorMode.TESTING)[0]))


def _theta(panel, spec, fit: CceFit):
    theta = np.concatenate([fit.beta, fit.delta])
    w = np.concatenate([panel.x, z_regressors(panel, spec, fit.break_date)], axis=2)
    scores = np.einsum("itp,it->ip", w, fit.residuals)
    half = np.linalg.solve(fit.design_gram, scores.T @ scores)
    cov = np.linalg.solve(fit.design_gram, half.T).T
    return theta, cov


def fit_break(panel: PanelData, spec: BreakSpec, alpha: float = 0.05, c_alpha: float | None = None) -> BreakFit:
    """Full dating pipeline: profile, argmin, interval, coefficients, all from one engine."""
    return _break_fit(ProfileEngine([panel], spec), alpha, c_alpha)


def _break_fit(engine: ProfileEngine, alpha, c_alpha) -> BreakFit:
    """``fit_break`` of a lone panel's engine, which may already have served its sup-Wald."""
    panel, spec = engine.panels[0], engine.spec
    profile, (lower, upper, clamped), fit, (omega, phi, sigma_i) = _unwrap(_intervals(engine, alpha, c_alpha)[0])
    theta, cov = _theta(panel, spec, _unwrap(engine.fit([0], [profile.b_hat], ProjectorMode.TESTING)[0]))
    return BreakFit(
        b_hat=profile.b_hat, delta_hat=fit.delta, theta_hat=theta, theta_cov=cov,
        omega_x_hat=omega, phi_x_hat=phi, sigma_eps_i=sigma_i,
        ci_lower=lower, ci_upper=upper, alpha=alpha, ssr_profile=profile, ci_clamped=clamped,
    )
