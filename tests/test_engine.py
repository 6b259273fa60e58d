"""The profile engine against the per-date reference fits.

``estimate_breakpoint`` and ``sup_wald`` take every candidate from the
profile engine; ``ssr_at`` and ``wald_at`` refit one date with
``cce_fit``. The references below are the per-candidate loops over those
slow fits, so values must agree to 1e-8 and every decision (argmin,
argmax, excluded dates, raised error and its message) must be identical.
"""

import numpy as np

from panelbreak import (
    BreakSpec,
    HacConfig,
    Kernel,
    PanelData,
    estimate_breakpoint,
    fit_break,
    ssr_at,
    sup_wald,
    wald_at,
)
from panelbreak.exceptions import (
    RankConditionFailure,
    RankDeficientDesign,
    SingularCovariance,
    StatisticalError,
)
from panelbreak.panel import estimation_candidates
from panelbreak.panel import testing_candidates as trimmed_candidates

from conftest import exact_break_panel, random_panel, zero_tail_panel

REL_TOL = 1e-8
HAC_CONFIGS = (
    HacConfig(),
    HacConfig(kernel=Kernel.TRUNCATED_UNIFORM, bandwidth=3),
)


def close(got, want) -> bool:
    if got == want:  # also equal infinities
        return True
    return abs(got - want) <= REL_TOL * max(abs(want), np.finfo(float).tiny)


def outcome(func, *args, **kwargs):
    """(result, None) or (None, (error type, message))."""
    try:
        return func(*args, **kwargs), None
    except StatisticalError as err:
        return None, (type(err), str(err))


def reference_profile(panel, spec):
    return [ssr_at(panel, spec, b) for b in estimation_candidates(spec, panel.n_periods)]


def reference_sup_wald(panel, spec, hac):
    """(dates, values, excluded) of the per-date loop over ``wald_at``."""
    dates, values, excluded = [], [], []
    last_error = None
    for b in trimmed_candidates(spec, panel.n_periods):
        try:
            values.append(wald_at(panel, spec, b, hac))
            dates.append(b)
        except (RankConditionFailure, SingularCovariance) as err:
            excluded.append(b)
            last_error = err
    if not dates:
        raise RankConditionFailure(f"every candidate failed the rank condition: {last_error}")
    return dates, values, excluded


def assert_profile_matches(panel, spec):
    got, got_err = outcome(estimate_breakpoint, panel, spec)
    want, want_err = outcome(reference_profile, panel, spec)
    assert got_err == want_err
    if want_err is None:
        assert all(close(g, w) for g, w in zip(got.ssr_values, want)), (got.ssr_values, want)
        assert len(got.ssr_values) == len(want)
        assert got.argmin_index == int(np.argmin(want))
    return got


def assert_sup_wald_matches(panel, spec, hac=HacConfig()):
    got, got_err = outcome(sup_wald, panel, spec, hac, sw_critical=5.0)
    want, want_err = outcome(reference_sup_wald, panel, spec, hac)
    assert got_err == want_err
    if want_err is None:
        dates, values, excluded = want
        assert got.candidate_dates == tuple(dates)
        assert got.excluded_dates == tuple(excluded)
        assert all(close(g, w) for g, w in zip(got.wald_values, values)), (got.wald_values, values)
        assert got.argmax_date == dates[int(np.argmax(values))]
    return got


class TestRandomPanels:
    def test_acceptance_01_panels(self):
        # The panel draws of acceptance test 01, every candidate date.
        rng = np.random.default_rng(101)
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
            if lo <= hi:
                rng.integers(lo, hi + 1)  # test 01's date draw; every date is checked here
            assert_profile_matches(panel, spec)
            assert_sup_wald_matches(panel, spec, HAC_CONFIGS[trial % len(HAC_CONFIGS)])

    def test_larger_panel_with_break(self, rng):
        x = rng.standard_normal((40, 30, 2))
        d = np.hstack([np.ones((30, 1)), np.linspace(0.0, 1.0, 30)[:, None]])
        post = np.arange(1, 31) > 12
        y = x @ np.array([1.0, 0.5]) + 0.8 * x[:, :, 1] * post + rng.standard_normal((40, 30))
        panel = PanelData(y=y, x=x, d=d)
        spec = BreakSpec.from_indices(2, [1])
        assert assert_profile_matches(panel, spec).b_hat == 12
        for hac in HAC_CONFIGS:
            assert assert_sup_wald_matches(panel, spec, hac).argmax_date == 12


class TestAdversarialPanels:
    def test_exact_break_panel(self, rng):
        panel, spec = exact_break_panel(rng, n=10, t=20, b0=10)
        profile = assert_profile_matches(panel, spec)
        assert profile.b_hat == 10
        # A near-exact fit is scored by cce_fit itself.
        assert profile.ssr_values[profile.argmin_index] == ssr_at(panel, spec, 10)
        result = assert_sup_wald_matches(panel, spec)
        assert result.argmax_date == 10 and result.sw == np.inf

    def test_noise_free_null(self, rng):
        x = rng.standard_normal((6, 12, 2))
        panel = PanelData(y=x @ np.array([1.0, -0.5]), x=x)
        spec = BreakSpec.from_indices(2, [1])
        profile = assert_profile_matches(panel, spec)
        assert list(profile.ssr_values) == reference_profile(panel, spec)
        result = assert_sup_wald_matches(panel, spec)
        assert set(result.wald_values) == {0.0}
        assert set(result.excluded_dates) <= {1, 11}

    def test_every_candidate_failing_rank(self, rng):
        f = rng.standard_normal((12, 2))
        big_gamma = rng.standard_normal((8, 2, 2))
        x = np.einsum("tm,imk->itk", f, big_gamma)
        y = x @ np.ones(2) + rng.standard_normal((8, 12))
        panel = PanelData(y=y, x=x)
        spec = BreakSpec.from_indices(2, [1])
        _, err = outcome(sup_wald, panel, spec, sw_critical=1.0)
        assert err is not None and err[0] is RankConditionFailure
        assert_sup_wald_matches(panel, spec)
        assert_profile_matches(panel, spec)

    def test_collinear_common_regressors(self, rng):
        t = 16
        ones = np.ones((t, 1))
        trend = np.arange(t, dtype=float)[:, None]
        d = np.hstack([ones, 2.0 * ones, trend, 3.0 * trend - ones])
        x = rng.standard_normal((10, t, 2))
        y = x @ np.ones(2) + rng.standard_normal((10, t))
        panel = PanelData(y=y, x=x, d=d)
        spec = BreakSpec.from_indices(2, [0])
        assert_profile_matches(panel, spec)
        assert_sup_wald_matches(panel, spec)

    def test_minimal_t(self, rng):
        panel = random_panel(rng, n=5, t=6, k=2)
        spec = BreakSpec.from_indices(2, [0, 1])
        assert assert_profile_matches(panel, spec).candidate_dates == (2, 3)
        assert_sup_wald_matches(panel, spec)

    def test_exact_ties_take_the_first_date(self, rng):
        # The breaking regressor is zero over periods 4..8, so Z(b) and
        # the SSR are the same for every b in 3..8.
        x = rng.standard_normal((20, 14, 2))
        x[:, 3:8, 1] = 0.0
        post = np.arange(1, 15) > 5
        y = x @ np.ones(2) + 2.0 * x[:, :, 1] * post + 0.1 * rng.standard_normal((20, 14))
        panel = PanelData(y=y, x=x)
        spec = BreakSpec.from_indices(2, [1])
        profile = assert_profile_matches(panel, spec)
        assert profile.b_hat == 3
        # Tied minima are scored by cce_fit itself.
        assert profile.ssr_values[2:8] == tuple(ssr_at(panel, spec, b) for b in range(3, 9))
        assert len(set(profile.ssr_values[2:8])) == 1

    def test_breaking_regressor_zero_after_a_date(self):
        # An all-zero Gram is no safe Gram: those dates go to the reference fits.
        panel, spec = zero_tail_panel()
        assert assert_sup_wald_matches(panel, spec).excluded_dates == (1, 7, 8, 9, 10)
        assert_profile_matches(panel, spec)
        _, err = outcome(estimate_breakpoint, panel, spec)
        assert err == (RankDeficientDesign, "partialled break regressors have rank 0 < r=1 at b=8")
        assert outcome(fit_break, panel, spec, c_alpha=11.0)[1] == err

    def test_strong_factors(self):
        # Factors that explain almost all of y and X: F(b)'F(b) - (Q_b'F)'(Q_b'F)
        # cancels most of its digits, so those dates are left to cce_fit.
        rng = np.random.default_rng(5)
        n, t = 30, 40
        f = 50.0 * rng.standard_normal((t, 2))
        gamma = rng.standard_normal((n, 2))
        big_gamma = rng.standard_normal((n, 2, 2))
        x = np.einsum("tm,imk->itk", f, big_gamma) + 5e-3 * rng.standard_normal((n, t, 2))
        post = np.arange(1, t + 1) > 15
        y = x @ np.ones(2) + 0.3 * x[:, :, 1] * post + gamma @ f.T + 1e-3 * rng.standard_normal((n, t))
        panel = PanelData(y=y, x=x, d=np.ones((t, 1)))
        assert assert_sup_wald_matches(panel, BreakSpec.from_indices(2, [1])).argmax_date == 15


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, rng):
        x = rng.standard_normal((30, 24, 2))
        post = np.arange(1, 25) > 9
        y = x @ np.ones(2) + 0.7 * x[:, :, 1] * post + rng.standard_normal((30, 24))
        panel = PanelData(y=y, x=x, d=np.ones((24, 1)))
        spec = BreakSpec.from_indices(2, [1])

        def run():
            fit = fit_break(panel, spec, c_alpha=11.0)
            wald = sup_wald(panel, spec, sw_critical=8.85)
            return b"".join(
                np.asarray(a, dtype=float).tobytes()
                for a in (
                    fit.ssr_profile.ssr_values, fit.delta_hat, fit.theta_hat,
                    fit.theta_cov, fit.sigma_eps_i, wald.wald_values,
                    (fit.b_hat, fit.ci_lower, fit.ci_upper, wald.argmax_date),
                )
            )

        assert run() == run()

