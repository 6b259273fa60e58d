"""Synthetic factor-model panels and a Monte Carlo experiment runner.

The data generator follows the interactive-effects design: regressors
load on common factors, the outcome loads on the same factors with its
own unit-specific loadings, and a subset of slope coefficients shifts
after the true break date. The experiment runner scores estimation and
testing pipelines against the sealed truth record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import ProfileEngine, _intervals
from .exceptions import ConfigInvariantViolation, ExperimentError, PanelBreakError
from .panel import BreakSpec, PanelData
from .wald import _sup_wald


@dataclass(frozen=True)
class DgpConfig:
    """Factor-model panel design for Monte Carlo experiments.

    The breaking coefficients are the last ``r`` regressors. ``b0=None``
    generates under the null of no break (``delta`` then only defines r).
    """

    n_units: int = 200
    n_periods: int = 10
    k: int = 2
    r: int = 1
    m: int = 1
    n_known: int = 0
    beta: tuple = (1.0, 1.0)
    delta: tuple = (1.0,)
    b0: int | None = 5
    factor_rho: float = 0.5  # AR(1) coefficient; 0 gives iid factors
    loading_mean: float = 1.0
    loading_scale: float = 0.5
    eps_variance_range: tuple = (0.5, 1.5)
    v_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if min(self.n_units, self.n_periods) < 2 or self.k < 1:
            raise ConfigInvariantViolation("need N >= 2, T >= 2, k >= 1")
        if not (1 <= self.r <= self.k):
            raise ConfigInvariantViolation("need 1 <= r <= k")
        if self.n_known < 0:
            raise ConfigInvariantViolation("n_known must be >= 0")
        if not (0 <= self.m <= self.k):
            raise ConfigInvariantViolation("rank condition needs 0 <= m <= k")
        if not (self.m <= self.r):
            raise ConfigInvariantViolation("testing rank condition needs m <= r")
        if len(self.beta) != self.k or len(self.delta) != self.r:
            raise ConfigInvariantViolation("beta/delta lengths must match k/r")
        scales = (*self.beta, *self.delta, self.loading_mean, self.loading_scale, self.v_scale)
        if not all(math.isfinite(v) for v in scales):
            raise ConfigInvariantViolation("beta, delta, loadings and v_scale must be finite")
        if self.b0 is not None and not (
            self.r <= self.b0 <= self.n_periods - self.r - 1
        ):
            raise ConfigInvariantViolation("b0 must lie in [r, T-r-1]")
        if not abs(self.factor_rho) < 1.0:
            raise ConfigInvariantViolation("factor_rho must lie in (-1, 1)")
        if len(self.eps_variance_range) != 2:
            raise ConfigInvariantViolation("eps_variance_range needs two values")
        lo, hi = self.eps_variance_range
        if not (0.0 <= lo <= hi < math.inf):
            raise ConfigInvariantViolation("invalid idiosyncratic variance range")
        if self.seed < 0:
            raise ConfigInvariantViolation("seed must be >= 0")

    def break_spec(self) -> BreakSpec:
        breaking = list(range(self.k - self.r, self.k))
        return BreakSpec.from_indices(self.k, breaking)


@dataclass(frozen=True)
class DgpTruth:
    """Sealed truth record; scoring only, never fed to the estimators."""

    b0: int | None
    factors: np.ndarray  # T x m
    gamma: np.ndarray  # N x m
    big_gamma: np.ndarray  # N x m x k
    sigma_eps: np.ndarray  # N


def _ar1_factors(rng, n_periods: int, m: int, rho: float) -> np.ndarray:
    innovations = rng.standard_normal((n_periods, m))
    scale = math.sqrt(1.0 - rho * rho)
    f = np.empty((n_periods, m))
    f[0] = innovations[0]
    for t in range(1, n_periods):
        f[t] = rho * f[t - 1] + scale * innovations[t]
    return f


def generate(config: DgpConfig, seed=None):
    """Draw one panel; returns (PanelData, DgpTruth). Deterministic in seed."""
    rng = np.random.default_rng(config.seed if seed is None else seed)
    n, t, k, r, m = (
        config.n_units,
        config.n_periods,
        config.k,
        config.r,
        config.m,
    )
    f = _ar1_factors(rng, t, m, config.factor_rho)
    gamma = config.loading_mean + config.loading_scale * rng.standard_normal((n, m))
    big_gamma = config.loading_mean + config.loading_scale * rng.standard_normal((n, m, k))
    lo, hi = config.eps_variance_range
    sigma_eps = rng.uniform(lo, hi, size=n)
    v = config.v_scale * rng.standard_normal((n, t, k))
    x = np.einsum("tm,imk->itk", f, big_gamma) + v
    eps = np.sqrt(sigma_eps)[:, None] * rng.standard_normal((n, t))
    beta = np.asarray(config.beta)
    delta = np.asarray(config.delta)
    y = x @ beta + (f @ gamma.T).T + eps
    if config.b0 is not None and np.any(delta):
        post = np.arange(1, t + 1) > config.b0
        y += (x[:, :, k - r :] @ delta) * post
    d = None
    if config.n_known > 0:
        d = np.hstack(
            [np.ones((t, 1)), rng.standard_normal((t, config.n_known - 1))]
        )
        alpha_i = config.loading_mean + config.loading_scale * rng.standard_normal(
            (n, config.n_known)
        )
        y += alpha_i @ d.T
    panel = PanelData(y=y, x=x, d=d)
    truth = DgpTruth(
        b0=config.b0, factors=f, gamma=gamma, big_gamma=big_gamma, sigma_eps=sigma_eps
    )
    return panel, truth


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregated Monte Carlo metrics with their standard errors."""

    replications: int
    pipeline: str
    metrics: dict  # name -> (value, mc standard error)
    n_errors: int = 0

    def to_dict(self) -> dict:
        return {
            "replications": self.replications,
            "pipeline": self.pipeline,
            "n_errors": self.n_errors,
            "metrics": {
                name: {"value": val, "mc_se": se}
                for name, (val, se) in sorted(self.metrics.items())
            },
        }


def _rate(flags) -> tuple:
    p = float(np.mean(flags))
    return p, math.sqrt(p * (1.0 - p) / len(flags))


def _mean(values) -> tuple:
    v = np.asarray(values, dtype=float)
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(len(v))) if len(v) > 1 else 0.0


MAX_ERROR_FRACTION = 0.01
# Replications fitted as one stack: whole stacks fill the benchmark's 25-replication timing
# blocks, and five 200 x 10 panels with their stage-1 data hold about 0.6 MB.
_STACK = 5


def run_experiment(config: DgpConfig, pipeline: str = "FULL", reps: int = 100, alpha: float = 0.05) -> ExperimentReport:
    """Run ``reps`` replications of ESTIMATE, TEST or FULL and aggregate.

    Each stage looks up its critical value (the argmax law's for the date
    interval, the sup-Bessel law's for the sup-Wald test) once per stack,
    and raises on an alpha outside its range before any replication is
    scored; the test uses ``HacConfig()``. Each
    replication draws its panel from its own spawned seed, in order; the
    panels are fitted ``_STACK`` at a time by one ``ProfileEngine``, each
    as it would be alone, and scored in order.
    Replications that error are counted; more than ``MAX_ERROR_FRACTION``
    of them abort, to surface systematic failures.
    """
    pipeline = pipeline.upper()
    if pipeline not in {"ESTIMATE", "TEST", "FULL"}:
        raise ConfigInvariantViolation(f"unknown pipeline {pipeline!r}")
    if reps < 1:
        raise ConfigInvariantViolation("reps must be >= 1")
    estimate = pipeline in {"ESTIMATE", "FULL"}
    test = pipeline in {"TEST", "FULL"}
    spec = config.break_spec()

    root = np.random.SeedSequence(config.seed)  # each stack spawns its children as it is drawn
    hits, abs_errors, covered, widths, rejections = [], [], [], [], []
    n_errors = 0
    max_errors = max(1, int(MAX_ERROR_FRACTION * reps))
    for start in range(0, reps, _STACK):
        drawn = [generate(config, seed=seed) for seed in root.spawn(min(_STACK, reps - start))]
        engine = ProfileEngine([panel for panel, _ in drawn], spec)  # one for both stages
        skipped = [None] * len(drawn)
        tests = _sup_wald(engine, None, alpha) if test else skipped  # first: no b̂ fit is held then
        intervals = _intervals(engine, alpha) if estimate else skipped
        for s, ((_, truth), interval, result) in enumerate(zip(drawn, intervals, tests)):
            # A replication counts in every metric or, when a stage raised, in none.
            if isinstance(interval, PanelBreakError) or isinstance(result, PanelBreakError):
                n_errors += 1
                if n_errors > max_errors:
                    raise ExperimentError(f"{n_errors} of {start + s + 1} replications failed; aborting")
                continue
            if estimate:
                b_hat, (lower, upper, _) = interval[0].b_hat, interval[1]
                widths.append(upper - lower + 1)
                if truth.b0 is not None:
                    hits.append(b_hat == truth.b0)
                    abs_errors.append(abs(b_hat - truth.b0))
                    covered.append(lower <= truth.b0 <= upper)
            if test:
                rejections.append(result.reject_sw)
        del drawn, engine, tests, intervals  # before the next stack is drawn
    metrics = {}
    if hits:
        metrics["exact_hit_rate"] = _rate(hits)
        metrics["mean_abs_date_error"] = _mean(abs_errors)
    if covered:
        metrics["ci_coverage"] = _rate(covered)
        metrics["ci_mean_width"] = _mean(widths)
    if rejections:
        metrics["rejection_rate"] = _rate(rejections)
    return ExperimentReport(
        replications=reps, pipeline=pipeline, metrics=metrics, n_errors=n_errors
    )
