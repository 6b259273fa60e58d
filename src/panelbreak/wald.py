"""Wald and sup-Wald tests for a common structural break, with HAC errors.

The covariance of the break-size estimate is the sandwich
Omega^{-1} Psi Omega^{-1}, where Psi is a kernel-weighted sum of
autocovariances of the score contributions. Residuals entering the
weights always come from the fit at the same candidate date being
tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .estimator import BreakFit, ProfileEngine, ProjectorMode, _attempt, _break_fit, _unwrap, cce_fit
from .exceptions import (
    EmptyCandidateSet,
    InputError,
    RankConditionFailure,
    SingularCovariance,
    StatisticalError,
)
from .limits import chi_squared_quantile, sup_bessel_critical
from .panel import BreakSpec, PanelData, testing_candidates


class Kernel(Enum):
    BARTLETT = "bartlett"
    TRUNCATED_UNIFORM = "truncated_uniform"


def kernel_weight(kernel: Kernel, u: float) -> float:
    if kernel is Kernel.BARTLETT:
        return max(0.0, 1.0 - u)
    return 1.0 if u <= 1.0 else 0.0


@dataclass(frozen=True)
class HacConfig:
    """Kernel and bandwidth for the long-run covariance estimate.

    ``bandwidth=None`` means AUTO, which resolves to floor(T^(1/3)).
    """

    kernel: Kernel = Kernel.BARTLETT
    bandwidth: int | None = None

    def __post_init__(self):
        if self.bandwidth is not None and self.bandwidth < 1:
            raise InputError("explicit bandwidth must be >= 1")

    def resolve_bandwidth(self, n_periods: int) -> int:
        if self.bandwidth is not None:
            return self.bandwidth
        # An exact integer cube root: the float 64 ** (1/3) is 3.9999999999999996.
        root = round(n_periods ** (1.0 / 3.0))
        while root**3 > n_periods:
            root -= 1
        while (root + 1) ** 3 <= n_periods:
            root += 1
        return max(1, root)


def _invert_psd(mats: np.ndarray):
    """Inverses of a stack of symmetric PSD matrices via eigendecomposition.

    An eigenvalue at or below 1e-12 * trace / r signals an effectively
    singular covariance. That is surfaced rather than regularized away:
    the second value maps each such matrix's index to its error message.
    """
    sym = 0.5 * (mats + mats.transpose(0, 2, 1))
    vals, vecs = np.linalg.eigh(sym)
    floor = 1e-12 * np.maximum(np.trace(mats, axis1=1, axis2=2), np.finfo(float).tiny) / mats.shape[2]
    errors = {
        int(j): f"covariance eigenvalue {vals[j].min():.3e} below floor {floor[j]:.3e}"
        for j in np.flatnonzero(vals[:, 0] <= floor)  # eigh sorts the eigenvalues ascending
    }
    vals[list(errors)] = 1.0  # those inverses are never used
    return (vecs / vals[:, None, :]) @ vecs.transpose(0, 2, 1), errors


def _sandwich(z: np.ndarray, resid: np.ndarray, hac: HacConfig):
    """Sandwich covariances of a stack of fits, and the failed Omega inversions.

    ``z`` (B, r, T, N) and ``resid`` (B, T, N) are time-major, so each lag's
    autocovariance of the scores e_it z_it is one product of two contiguous
    blocks of periods.
    """
    t, nt = z.shape[2], z.shape[2] * z.shape[3]
    # einsum, not BLAS: its order of summation over NT does not depend on the thread count.
    omega_inv, errors = _invert_psd(np.einsum("brtn,bstn->brs", z, z) / nt)
    s_t = hac.resolve_bandwidth(t)
    scores = resid[:, None] * z
    psi = np.einsum("brtn,bstn->brs", scores, scores) / nt
    for j in range(1, t):
        w = kernel_weight(hac.kernel, j / s_t)
        if w == 0.0:
            break
        lag = np.einsum("brtn,bstn->brs", scores[:, :, j:], scores[:, :, : t - j]) / nt
        psi += w * (lag + lag.transpose(0, 2, 1))
    return omega_inv @ psi @ omega_inv, errors


def _wald_stats(delta: np.ndarray, resid: np.ndarray, z: np.ndarray, hac: HacConfig):
    """W(b) of each fit in a stack, from its delta (B, r) and ``_sandwich``'s rows, and the failed inversions."""
    nt = resid.shape[1] * resid.shape[2]
    sigma, errors = _sandwich(z, resid, hac)
    sigma_inv, sigma_errors = _invert_psd(sigma)
    stat = ((nt * delta)[:, None, :] @ sigma_inv @ delta[:, :, None])[:, 0, 0]
    return np.where(0.0 > stat, 0.0, stat), {**sigma_errors, **errors}


def wald_at(panel: PanelData, spec: BreakSpec, b: int, hac: HacConfig | None = None) -> float:
    """Wald statistic W(b) = NT d'(b) Sigma(b)^{-1} d(b), TESTING projection."""
    fit = cce_fit(panel, spec, b, ProjectorMode.TESTING)
    if fit.ssr <= 1e-14 * fit.y_ss:
        # Numerically exact fit: both the residuals and (possibly) the break
        # estimate are pure rounding noise, so the Wald ratio is
        # indeterminate. Resolve it by the sign of the break magnitude.
        return 0.0 if np.sum(fit.delta * fit.delta) <= 1e-16 else np.inf
    stats, errors = _wald_stats(fit.delta[None], fit.residuals.T[None], fit.z_partialled.T[None], hac or HacConfig())
    if errors:
        raise SingularCovariance(errors[0])
    return float(stats[0])


@dataclass(frozen=True)
class WaldResult:
    """Wald profile over the trimmed candidate set and the sup decision."""

    candidate_dates: tuple
    wald_values: tuple
    sw: float
    sw_critical: float
    chi2_critical: float
    reject_sw: bool
    argmax_date: int
    trim_fraction: float
    r: int
    alpha: float
    excluded_dates: tuple = field(default_factory=tuple)


def sup_wald(panel: PanelData, spec: BreakSpec, hac: HacConfig | None = None, alpha: float = 0.05,
             sw_critical: float | None = None) -> WaldResult:
    """Sup-Wald test over the trimmed set B'.

    A candidate failing the rank condition is excluded and flagged in
    ``excluded_dates``; it is an error only if every candidate fails.
    ``sw_critical`` may be supplied to bypass the critical-value cache.
    The fits come from the profile engine; ``wald_at`` is the reference
    for each value.
    """
    return _unwrap(_sup_wald(ProfileEngine([panel], spec), hac, alpha, sw_critical)[0])


def _sup_wald(engine: ProfileEngine, hac, alpha, sw_critical) -> list:
    """Each panel's sup-Wald result, or the error it raised, from the stack's TESTING fits."""
    spec, hac, t = engine.spec, hac or HacConfig(), engine.panels[0].n_periods
    if not (0.0 < alpha < 1.0):
        raise InputError("alpha must lie in (0, 1)")
    candidates = testing_candidates(spec, t)
    if not candidates:
        empty = EmptyCandidateSet(f"trimmed candidate set is empty for T={t}, eps={spec.trim_fraction}")
        return [empty] * len(engine.panels)
    fast, rank_failures, reps = {}, {}, range(len(engine.panels))
    for fits in engine.fits(reps, [candidates] * len(reps), ProjectorMode.TESTING):
        stats, singular = _wald_stats(fits.delta, fits.resid, fits.z_partialled, hac)
        fast.update((pair, w) for j, (pair, w) in enumerate(zip(fits.pairs, stats.tolist())) if j not in singular)
        rank_failures.update(fits.excluded)
        del fits  # its rows go before the next chunk's are made

    def decide(s: int) -> WaldResult:
        """Panel ``s``'s result from the stack's Wald values and rank exclusions."""
        panel = engine.panels[s]
        dates, values, excluded, last_error = [], [], [], None
        for b in candidates:
            if (s, b) in rank_failures:
                excluded.append(b)
                last_error = rank_failures[s, b]
                continue
            try:
                # A date the engine could not decide gets the reference value or error.
                values.append(fast[s, b] if (s, b) in fast else wald_at(panel, spec, b, hac))
                dates.append(b)
            except (RankConditionFailure, SingularCovariance) as err:
                excluded.append(b)
                last_error = str(err)  # not err: its traceback would keep this frame's arrays alive
        if not dates:
            raise RankConditionFailure(f"every candidate failed the rank condition: {last_error}")
        sw_index = int(np.argmax(values))
        sw = values[sw_index]
        critical = sw_critical if sw_critical is not None else sup_bessel_critical(
            spec.n_breaking, spec.trim_fraction, alpha)
        return WaldResult(
            candidate_dates=tuple(dates), wald_values=tuple(values), sw=sw, sw_critical=critical,
            chi2_critical=chi_squared_quantile(spec.n_breaking, 1.0 - alpha), reject_sw=bool(sw > critical),
            argmax_date=dates[sw_index], trim_fraction=spec.trim_fraction, r=spec.n_breaking, alpha=alpha,
            excluded_dates=tuple(excluded),
        )

    return [_attempt(decide, s) for s in reps]


@dataclass(frozen=True)
class DetectedBreak:
    """One break found by the sequential procedure, in global dates."""

    fit: BreakFit
    window: tuple
    wald: WaldResult


def sequential_breaks(
    panel: PanelData,
    spec: BreakSpec,
    hac: HacConfig | None = None,
    alpha: float = 0.05,
    max_breaks: int = 5,
    full_sample_wald: WaldResult | None = None,
) -> "list[DetectedBreak]":
    """One-at-a-time multiple-break search by sample splitting.

    A loop over a stack of windows, the full sample first. A window that rejects
    has its break dated; its pre and post sub-windows of at least 2r + 2 periods
    are then searched, depth first, the earlier first. The first ``max_breaks``
    breaks found are kept, sorted by date. Each window is tested and dated by one
    profile engine, freed before the next window builds its own. A statistical
    error in a sub-window ends only that window; in the full sample it is raised.
    ``full_sample_wald`` is the full-sample test if the caller has run it.
    """
    if max_breaks < 1:
        raise InputError("max_breaks must be >= 1")
    found: list[DetectedBreak] = []
    whole = (1, panel.n_periods)
    windows = [(*whole, full_sample_wald)]
    while windows and len(found) < max_breaks:
        start, stop, known = windows.pop()
        try:
            engine = ProfileEngine([panel if (start, stop) == whole else panel.slice_periods(start, stop)], spec)
            wald = known if known is not None else _unwrap(_sup_wald(engine, hac, alpha, None)[0])
            if not wald.reject_sw:
                continue
            fit = _break_fit(engine, alpha, None)
        except StatisticalError:
            if (start, stop) == whole:
                raise
            continue
        finally:
            engine = None  # the window's engine goes before the next window builds its own
        offset = start - 1
        split = fit.b_hat + offset
        global_fit = replace(fit, b_hat=split, ci_lower=fit.ci_lower + offset, ci_upper=fit.ci_upper + offset)
        found.append(DetectedBreak(fit=global_fit, window=(start, stop), wald=wald))
        pre, post = (start, split, None), (split + 1, stop, None)
        windows += [w for w in (post, pre) if w[1] - w[0] + 1 >= 2 * spec.n_breaking + 2]  # pre is popped first
    found.sort(key=lambda br: br.fit.b_hat)
    return found
