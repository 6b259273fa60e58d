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

from .estimator import BreakFit, CceFit, ProjectorMode, TestingProfile, cce_fit, fit_break
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
    homoskedastic_shortcut: bool = False

    def __post_init__(self):
        if self.bandwidth is not None and self.bandwidth < 1:
            raise InputError("explicit bandwidth must be >= 1")

    def resolve_bandwidth(self, n_periods: int) -> int:
        if self.bandwidth is not None:
            return self.bandwidth
        return max(1, int(np.floor(n_periods ** (1.0 / 3.0))))


def _invert_psd(mat: np.ndarray, floor_scale: float) -> np.ndarray:
    """Inverse of a symmetric PSD matrix via eigendecomposition.

    Eigenvalues below ``floor_scale`` signal an effectively singular
    covariance; that is surfaced as an error rather than silently
    regularized away.
    """
    sym = 0.5 * (mat + mat.T)
    vals, vecs = np.linalg.eigh(sym)
    if np.any(vals <= floor_scale):
        raise SingularCovariance(
            f"covariance eigenvalue {vals.min():.3e} below floor {floor_scale:.3e}"
        )
    return (vecs / vals) @ vecs.T


def delta_covariance(fit: CceFit, hac: HacConfig) -> np.ndarray:
    """Sandwich covariance of the break-size estimate at one date.

    The scores e_it z_it are laid out time-major, so each lag's
    autocovariance is one product of two contiguous row blocks.
    """
    n, t, r = fit.z_partialled.shape
    nt = n * t
    zt = fit.z_partialled
    omega = np.einsum("itp,itq->pq", zt, zt) / nt
    floor = 1e-12 * max(np.trace(omega), np.finfo(float).tiny) / r
    omega_inv = _invert_psd(omega, floor)
    if hac.homoskedastic_shortcut:
        sigma2 = fit.ssr / nt
        return sigma2 * omega_inv
    s_t = hac.resolve_bandwidth(t)
    scores = np.ascontiguousarray((fit.residuals[:, :, None] * zt).transpose(1, 0, 2))
    flat = scores.reshape(nt, r)
    psi = flat.T @ flat / nt
    for j in range(1, t):
        w = kernel_weight(hac.kernel, j / s_t)
        if w == 0.0:
            break
        lag = flat[j * n :].T @ flat[: (t - j) * n] / nt
        psi += w * (lag + lag.T)
    return omega_inv @ psi @ omega_inv


def wald_from_fit(fit: CceFit, hac: HacConfig) -> float:
    n, t, r = fit.z_partialled.shape
    if fit.ssr <= 1e-14 * fit.y_ss:
        # Numerically exact fit: both the residuals and (possibly) the
        # break estimate are pure rounding noise, so the Wald ratio is
        # indeterminate. Resolve it by the sign of the break magnitude.
        return 0.0 if float(fit.delta @ fit.delta) <= 1e-16 else float("inf")
    sigma = delta_covariance(fit, hac)
    floor = 1e-12 * max(np.trace(sigma), np.finfo(float).tiny) / r
    sigma_inv = _invert_psd(sigma, floor)
    stat = float(n * t * fit.delta @ sigma_inv @ fit.delta)
    return max(stat, 0.0)


def wald_at(panel: PanelData, spec: BreakSpec, b: int, hac: HacConfig | None = None) -> float:
    """Wald statistic W(b) = NT d'(b) Sigma(b)^{-1} d(b), TESTING projection."""
    hac = hac or HacConfig()
    fit = cce_fit(panel, spec, b, ProjectorMode.TESTING)
    return wald_from_fit(fit, hac)


def _profile_wald(profile: TestingProfile, b: int, hac: HacConfig) -> float:
    """W(b) from the engine's fit, or from ``wald_at`` where that must decide."""
    fit = profile.fit(b)
    if fit is not None:
        try:
            return wald_from_fit(fit, hac)
        except SingularCovariance:
            pass  # the reference fit raises it again, with its own figures
    return wald_at(profile.panel, profile.spec, b, hac)


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


def sup_wald(
    panel: PanelData,
    spec: BreakSpec,
    hac: HacConfig | None = None,
    alpha: float = 0.05,
    sw_critical: float | None = None,
) -> WaldResult:
    """Sup-Wald test over the trimmed set B'.

    A candidate failing the rank condition is excluded and flagged in
    ``excluded_dates``; it is an error only if every candidate fails.
    ``sw_critical`` may be supplied to bypass the critical-value cache.
    The fits come from the profile engine; ``wald_at`` is the reference
    for each value.
    """
    hac = hac or HacConfig()
    if not (0.0 < alpha < 1.0):
        raise InputError("alpha must lie in (0, 1)")
    candidates = testing_candidates(spec, panel.n_periods)
    if not candidates:
        raise EmptyCandidateSet(
            f"trimmed candidate set is empty for T={panel.n_periods}, "
            f"eps={spec.trim_fraction}"
        )
    profile = TestingProfile(panel, spec)
    dates, values, excluded = [], [], []
    last_error: StatisticalError | None = None
    for b in candidates:
        try:
            values.append(_profile_wald(profile, b, hac))
            dates.append(b)
        except (RankConditionFailure, SingularCovariance) as err:
            excluded.append(b)
            last_error = err
    if not dates:
        raise RankConditionFailure(
            f"every candidate failed the rank condition: {last_error}"
        )
    sw_index = int(np.argmax(values))
    sw = values[sw_index]
    if sw_critical is None:
        sw_critical = sup_bessel_critical(spec.n_breaking, spec.trim_fraction, alpha)
    chi2_crit = chi_squared_quantile(spec.n_breaking, 1.0 - alpha)
    return WaldResult(
        candidate_dates=tuple(dates),
        wald_values=tuple(values),
        sw=sw,
        sw_critical=sw_critical,
        chi2_critical=chi2_crit,
        reject_sw=bool(sw > sw_critical),
        argmax_date=dates[sw_index],
        trim_fraction=spec.trim_fraction,
        r=spec.n_breaking,
        alpha=alpha,
        excluded_dates=tuple(excluded),
    )


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

    Tests the full sample; on rejection, dates the break, then recurses
    on the pre and post subsamples whose lengths still admit a nonempty
    trimmed candidate set. Returns breaks sorted by date, capped at
    ``max_breaks``. ``full_sample_wald`` is the full-sample test when the
    caller has already run it. A statistical error in a sub-window, from
    testing or from dating, ends the search in that window; in the full
    sample it is raised.
    """
    if max_breaks < 1:
        raise InputError("max_breaks must be >= 1")
    hac = hac or HacConfig()
    found: list[DetectedBreak] = []

    def search(start: int, stop: int, first: bool) -> None:
        if len(found) >= max_breaks:
            return
        if not first and stop - start + 1 < 2 * spec.n_breaking + 2:
            return
        sub = panel.slice_periods(start, stop) if (start, stop) != (1, panel.n_periods) else panel
        try:
            if first and full_sample_wald is not None:
                wald = full_sample_wald
            else:
                wald = sup_wald(sub, spec, hac, alpha)
            if not wald.reject_sw:
                return
            fit = fit_break(sub, spec, alpha)
        except StatisticalError:
            if first:
                raise
            return
        offset = start - 1
        global_fit = replace(
            fit,
            b_hat=fit.b_hat + offset,
            ci_lower=fit.ci_lower + offset,
            ci_upper=fit.ci_upper + offset,
        )
        found.append(DetectedBreak(fit=global_fit, window=(start, stop), wald=wald))
        split = fit.b_hat + offset
        search(start, split, False)
        search(split + 1, stop, False)

    search(1, panel.n_periods, True)
    found.sort(key=lambda br: br.fit.b_hat)
    return found[:max_breaks]
