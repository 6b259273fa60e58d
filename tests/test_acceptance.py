"""Acceptance criteria for the full pipeline, one test per criterion.

Every test prints a single PASS/FAIL line (run with ``pytest -s`` or
rely on the captured output of failing tests). The statistical criteria
use fixed seeds and replication counts chosen so that the Monte Carlo
error is well inside the stated tolerance bands.
"""

import time

import numpy as np
import pytest

from panelbreak import (
    BreakSpec,
    DgpConfig,
    HacConfig,
    PanelData,
    SimConfig,
    cce_fit,
    generate,
    run_experiment,
    sup_bessel_critical,
    wald_at,
)
from panelbreak.estimator import ProjectorMode
from panelbreak.limits import (
    argmax_quantile,
    chi_squared_quantile,
)
from panelbreak.panel import estimation_candidates
from panelbreak.panel import testing_candidates as trimmed_candidates

from conftest import oracle_joint_fit, random_panel, simulated_argmax_quantiles


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


class TestAcceptance:
    def test_01_oracle_equivalence(self):
        """Estimates match brute-force normal equations to 1e-8."""
        rng = np.random.default_rng(101)
        start = time.time()
        worst = 0.0
        for trial in range(100):
            n = int(rng.integers(4, 9))
            t = int(rng.integers(8, 16))
            k = int(rng.integers(1, 4))
            d_cols = int(rng.integers(0, 3))
            panel = random_panel(rng, n=n, t=t, k=k, d_cols=d_cols)
            r = int(rng.integers(1, k + 1))
            breaking = sorted(rng.choice(k, size=r, replace=False).tolist())
            spec = BreakSpec.from_indices(k, breaking)
            lo = max(r, d_cols + r + 1)
            hi = min(t - r - 1, t - d_cols - r - 2)
            if lo > hi:
                continue
            b = int(rng.integers(lo, hi + 1))
            for mode in (ProjectorMode.ESTIMATION, ProjectorMode.TESTING):
                fit = cce_fit(panel, spec, b, mode)
                theta, ssr = oracle_joint_fit(panel, spec, b, mode)
                worst = max(
                    worst,
                    float(np.max(np.abs(fit.delta - theta[-r:]))),
                    abs(fit.ssr - ssr) / max(ssr, 1.0),
                )
        elapsed = time.time() - start
        report(
            "criterion 1 (oracle equivalence)",
            worst < 1e-8 and elapsed < 10.0,
            f"max deviation {worst:.2e}, {elapsed:.1f}s",
        )

    def test_02_fixed_t_consistency(self):
        """Exact-date hit rate rises with N and reaches 0.9 by N=800."""
        start = time.time()
        rates = []
        for n in (50, 200, 800):
            # A moderate break keeps the N=50 hit rate off its ceiling
            # so the monotone improvement is visible.
            cfg = DgpConfig(n_units=n, n_periods=10, b0=5, delta=(0.35,), seed=202)
            rep = run_experiment(cfg, "ESTIMATE", reps=200)
            rates.append(rep.metrics["exact_hit_rate"][0])
        elapsed = time.time() - start
        ok = rates == sorted(rates) and rates[-1] >= 0.9 and elapsed < 300
        report(
            "criterion 2 (fixed-T consistency)",
            ok,
            f"hit rates {rates} over N=(50,200,800), {elapsed:.0f}s",
        )

    def test_03_interval_coverage(self):
        """The 95% date interval covers the truth for 92-98% of panels."""
        start = time.time()
        cfg = DgpConfig(
            n_units=500, n_periods=20, b0=10, delta=(0.1,), seed=303
        )
        rep = run_experiment(cfg, "ESTIMATE", reps=800, alpha=0.05)
        coverage, se = rep.metrics["ci_coverage"]
        width = rep.metrics["ci_mean_width"][0]
        elapsed = time.time() - start
        ok = 0.92 <= coverage <= 0.98 and elapsed < 600
        report(
            "criterion 3 (interval coverage)",
            ok,
            f"coverage {coverage:.3f} (se {se:.3f}), mean width {width:.1f}, {elapsed:.0f}s",
        )

    def test_04_pointwise_wald_null(self):
        """The null Wald statistic at a fixed date is chi-squared(1)."""
        start = time.time()
        cfg = DgpConfig(n_units=300, n_periods=30, b0=None, seed=404)
        spec = cfg.break_spec()
        seeds = np.random.SeedSequence(404).spawn(1500)
        stats = []
        for seed in seeds:
            panel, _ = generate(cfg, seed=seed)
            stats.append(wald_at(panel, spec, 15))
        q95 = float(np.quantile(stats, 0.95))
        target = chi_squared_quantile(1, 0.95)
        elapsed = time.time() - start
        ok = abs(q95 - target) <= 0.45 and elapsed < 600
        report(
            "criterion 4 (pointwise Wald null)",
            ok,
            f"95th percentile {q95:.3f} vs chi2 {target:.3f}, {elapsed:.0f}s",
        )

    def test_05_sup_wald_size_and_power(self):
        """Sup-Wald size in [0.03, 0.08] at the 5% level; power >= 0.9."""
        start = time.time()
        null_cfg = DgpConfig(n_units=300, n_periods=30, b0=None, seed=505)
        size = run_experiment(null_cfg, "TEST", reps=1000).metrics[
            "rejection_rate"
        ][0]
        alt_cfg = DgpConfig(
            n_units=300, n_periods=30, b0=15, delta=(0.5,), seed=506
        )
        power = run_experiment(alt_cfg, "TEST", reps=400).metrics[
            "rejection_rate"
        ][0]
        elapsed = time.time() - start
        ok = 0.03 <= size <= 0.08 and power >= 0.9 and elapsed < 900
        report(
            "criterion 5 (sup-Wald size and power)",
            ok,
            f"size {size:.3f}, power {power:.3f}, {elapsed:.0f}s",
        )

    def test_06_limit_law_self_consistency(self):
        """Critical values agree with simulation and dominate chi-squared."""
        start = time.time()
        checks = []
        # Argmax law: the closed-form 97.5% quantile is within 2% of a
        # simulation, and of one on a grid of half the step.
        shipped = argmax_quantile(0.975)
        (reseeded,), _ = simulated_argmax_quantiles([0.975], n_paths=200_000, seed=777)
        (half_step,), _ = simulated_argmax_quantiles([0.975], n_paths=120_000, step=0.05)
        checks.append(abs(reseeded - shipped) / shipped < 0.02)
        checks.append(abs(half_step - shipped) / shipped < 0.02)
        # Bessel law, orders 1 and 2 at the default trim.
        for r in (1, 2):
            shipped_b = sup_bessel_critical(r, 0.15, 0.05)
            reseeded_b = sup_bessel_critical(
                r, 0.15, 0.05, SimConfig(n_paths=100_000, seed=888)
            )
            half_grid = sup_bessel_critical(
                r, 0.15, 0.05, SimConfig(n_paths=100_000, grid_points=4000)
            )
            checks.append(abs(reseeded_b - shipped_b) / shipped_b < 0.02)
            checks.append(abs(half_grid - shipped_b) / shipped_b < 0.02)
        # Monotonicity and chi-squared dominance from the shipped cache.
        crits = [sup_bessel_critical(r, 0.15, 0.05) for r in (1, 2, 3, 4, 5, 6)]
        checks.append(crits == sorted(crits))
        checks.append(
            all(
                sup_bessel_critical(r, eps, 0.05)
                > chi_squared_quantile(r, 0.95)
                for r in (1, 2, 3)
                for eps in (0.05, 0.10, 0.15, 0.20)
            )
        )
        elapsed = time.time() - start
        report(
            "criterion 6 (limit-law self-consistency)",
            all(checks) and elapsed < 240,
            f"{sum(checks)}/{len(checks)} checks, {elapsed:.0f}s",
        )

    def test_07_invariant_suite(self):
        """Structural invariants of the estimators hold on random panels."""
        rng = np.random.default_rng(707)
        checks = []
        for _ in range(10):
            panel = random_panel(rng, n=8, t=14, k=2)
            spec = BreakSpec.from_indices(2, [1])
            # Trimmed candidates are a subset of the estimation set.
            checks.append(
                set(trimmed_candidates(spec, 14))
                <= set(estimation_candidates(spec, 14))
            )
            # Unit permutation leaves the SSR profile unchanged.
            perm = rng.permutation(8)
            shuffled = PanelData(y=panel.y[perm].copy(), x=panel.x[perm].copy())
            f1 = cce_fit(panel, spec, 7, ProjectorMode.ESTIMATION)
            f2 = cce_fit(shuffled, spec, 7, ProjectorMode.ESTIMATION)
            checks.append(abs(f1.ssr - f2.ssr) < 1e-9 * max(f1.ssr, 1.0))
            # Outcome scaling is equivariant.
            f3 = cce_fit(
                PanelData(y=3.0 * panel.y, x=panel.x.copy()),
                spec, 7, ProjectorMode.ESTIMATION,
            )
            checks.append(abs(f3.ssr - 9.0 * f1.ssr) < 1e-8 * max(f1.ssr, 1.0))
            checks.append(np.allclose(f3.delta, 3.0 * f1.delta, atol=1e-9))
            # The wider testing projection cannot raise the SSR.
            f4 = cce_fit(panel, spec, 7, ProjectorMode.TESTING)
            checks.append(f4.ssr <= f1.ssr + 1e-10 * max(f1.ssr, 1.0))
            # Wald statistics are nonnegative.
            checks.append(wald_at(panel, spec, 7) >= 0.0)
        report(
            "criterion 7 (invariant suite)",
            all(checks),
            f"{sum(checks)}/{len(checks)} invariants",
        )

    def test_08_rotational_consistency(self):
        """The factor space is recovered by cross-sectional averages as N grows."""
        angles = []
        for n in (50, 200, 800):
            cfg = DgpConfig(n_units=n, n_periods=20, b0=None, seed=808)
            per_rep = []
            for seed in np.random.SeedSequence(808).spawn(60):
                panel, truth = generate(cfg, seed=seed)
                qx, _ = np.linalg.qr(panel.x.mean(axis=0))
                qf, _ = np.linalg.qr(truth.factors)
                cos = np.linalg.norm(qx.T @ qf)
                per_rep.append(float(np.arccos(min(1.0, cos))))
            angles.append(float(np.median(per_rep)))
        ok = angles[0] > angles[1] > angles[2]
        report(
            "criterion 8 (rotational consistency)",
            ok,
            f"median principal angles {['%.4f' % a for a in angles]} for N=(50,200,800)",
        )
