"""Break-date estimation against brute-force oracles."""

import gc
import weakref

import numpy as np
import pytest

from panelbreak import (
    BreakSpec,
    DgpConfig,
    PanelData,
    cce_fit,
    estimator,
    estimate_breakpoint,
    estimate_theta,
    fit_break,
    generate,
    ssr_at,
    sup_wald,
    z_regressors,
)
from panelbreak.estimator import (
    ProjectorMode,
    ProfileEngine,
    _attempt,
    _interval,
    interval_half_width,
    moment_estimates,
)
from panelbreak.exceptions import (
    DegenerateScale,
    EmptyCandidateSet,
    InputError,
    RankConditionFailure,
    StatisticalError,
    ZeroBreakMagnitude,
)
from panelbreak.linalg import basis
from panelbreak.panel import estimation_candidates, testing_candidates as trimmed_candidates

from conftest import (
    acceptance_01_cases,
    exact_break_panel,
    exact_tie_panel,
    oracle_joint_fit,
    random_panel,
)


def reference_interval(panel, spec, b_hat, alpha, c_alpha):
    """``_interval``'s (interval, fit, moments) from the reference ESTIMATION fit at ``b_hat``."""
    fit = _attempt(cce_fit, panel, spec, b_hat, ProjectorMode.ESTIMATION)
    return _interval(panel, spec, b_hat, alpha, c_alpha, fit)


class TestOracleEquivalence:
    @pytest.mark.parametrize("mode", [ProjectorMode.ESTIMATION, ProjectorMode.TESTING])
    @pytest.mark.parametrize("d_cols", [0, 2])
    def test_delta_and_ssr_match_oracle(self, rng, mode, d_cols):
        for trial in range(5):
            panel = random_panel(rng, n=6, t=14, k=2, d_cols=d_cols)
            spec = BreakSpec.from_indices(2, [1])
            # Interior candidates only: near the edges the masked
            # proxies can absorb z(b) exactly, which is a legitimate
            # rank failure rather than an estimation target.
            for b in (5, 7, 10):
                fit = cce_fit(panel, spec, b, mode)
                theta, ssr = oracle_joint_fit(panel, spec, b, mode)
                assert np.allclose(fit.delta, theta[-1:], atol=1e-8)
                assert fit.ssr == pytest.approx(ssr, rel=1e-8)

    def test_two_breaking_coefficients(self, rng):
        panel = random_panel(rng, n=8, t=16, k=3)
        spec = BreakSpec.from_indices(3, [0, 2])
        for b in (4, 8, 11):
            fit = cce_fit(panel, spec, b, ProjectorMode.ESTIMATION)
            theta, ssr = oracle_joint_fit(panel, spec, b, ProjectorMode.ESTIMATION)
            assert np.allclose(fit.delta, theta[-2:], atol=1e-8)
            assert fit.ssr == pytest.approx(ssr, rel=1e-8)


class TestSsrProfile:
    def test_null_noise_free_ssr_vanishes(self, rng):
        # y depends on x alone; every candidate fits exactly.
        x = rng.standard_normal((6, 12, 2))
        y = x @ np.array([1.0, -0.5])
        panel = PanelData(y=y, x=x)
        spec = BreakSpec.from_indices(2, [1])
        scale = float(np.sum(y * y))
        for b in estimation_candidates(spec, 12):
            assert ssr_at(panel, spec, b) <= 1e-16 * scale

    def test_exact_break_recovered(self, rng):
        panel, spec = exact_break_panel(rng, b0=7)
        profile = estimate_breakpoint(panel, spec)
        assert profile.b_hat == 7
        ssrs = dict(zip(profile.candidate_dates, profile.ssr_values))
        assert ssrs[7] <= 1e-10
        assert all(v > 1e-6 for b, v in ssrs.items() if b != 7)

    def test_argmin_is_first_minimum(self, rng):
        panel = random_panel(rng, n=5, t=10, k=2)
        spec = BreakSpec.from_indices(2, [0])
        profile = estimate_breakpoint(panel, spec)
        values = list(profile.ssr_values)
        assert profile.argmin_index == values.index(min(values))
        assert profile.b_hat == profile.candidate_dates[profile.argmin_index]

    def test_minimal_candidate_set(self, rng):
        panel = random_panel(rng, n=5, t=6, k=2)
        spec = BreakSpec.from_indices(2, [0, 1])
        profile = estimate_breakpoint(panel, spec)
        assert profile.candidate_dates == (2, 3)

    def test_empty_candidate_set_raises(self, rng):
        panel = random_panel(rng, n=5, t=4, k=2)
        spec = BreakSpec.from_indices(2, [0, 1])
        with pytest.raises(EmptyCandidateSet):
            estimate_breakpoint(panel, spec)

    def test_outcome_scaling(self, rng):
        panel = random_panel(rng, n=5, t=12, k=2)
        spec = BreakSpec.from_indices(2, [1])
        scaled = PanelData(y=4.0 * panel.y, x=panel.x.copy())
        p1 = estimate_breakpoint(panel, spec)
        p2 = estimate_breakpoint(scaled, spec)
        assert p1.b_hat == p2.b_hat
        assert np.allclose(np.array(p2.ssr_values), 16.0 * np.array(p1.ssr_values))

    def test_unit_order_irrelevant(self, rng):
        panel = random_panel(rng, n=6, t=12, k=2)
        spec = BreakSpec.from_indices(2, [1])
        perm = np.random.default_rng(3).permutation(6)
        shuffled = PanelData(y=panel.y[perm].copy(), x=panel.x[perm].copy())
        assert np.allclose(
            estimate_breakpoint(panel, spec).ssr_values,
            estimate_breakpoint(shuffled, spec).ssr_values,
        )

    def test_testing_projection_never_increases_ssr(self, rng):
        # The testing projection removes a superset of the estimation span.
        panel = random_panel(rng, n=6, t=14, k=2, d_cols=1)
        spec = BreakSpec.from_indices(2, [1])
        for b in (3, 7, 11):
            est = ssr_at(panel, spec, b, ProjectorMode.ESTIMATION)
            tst = ssr_at(panel, spec, b, ProjectorMode.TESTING)
            assert tst <= est + 1e-10 * max(est, 1.0)


class TestRankChecks:
    def test_noise_free_factors_kill_the_design(self, rng):
        # x loads on the factors with no idiosyncratic part; projecting
        # out the cross-sectional average leaves nothing of x.
        f = rng.standard_normal((12, 2))
        big_gamma = rng.standard_normal((8, 2, 2))
        x = np.einsum("tm,imk->itk", f, big_gamma)
        y = x @ np.ones(2) + rng.standard_normal((8, 12))
        panel = PanelData(y=y, x=x)
        spec = BreakSpec.from_indices(2, [1])
        with pytest.raises(RankConditionFailure):
            cce_fit(panel, spec, 6, ProjectorMode.TESTING)


class TestConfidenceInterval:
    def test_half_width_formula(self):
        # w = floor(c * num / (N * den^2)) + 1 with num = 12, den = 4.
        w = interval_half_width(
            delta=np.array([2.0]),
            selection=np.array([[1.0]]),
            omega_x=np.array([[1.0]]),
            phi_x=np.array([[3.0]]),
            n_units=4,
            c_alpha=5.0,
        )
        assert w == 1

    def test_degenerate_alpha_one(self, rng):
        panel, spec = exact_break_panel(rng, b0=7)
        lo, hi, clamped = reference_interval(panel, spec, 7, alpha=1.0, c_alpha=0.0)[0]
        assert (lo, hi) == (6, 8)
        assert not clamped

    def test_clamping_flag(self, rng):
        # At b_hat = 1 even the minimal half-width of one period runs
        # past the admissible range on the left.
        panel, spec = exact_break_panel(rng, t=10, b0=1)
        lo, hi, clamped = reference_interval(panel, spec, 1, alpha=0.05, c_alpha=11.0)[0]
        assert clamped
        assert lo == 1 and hi == 2

    def test_zero_break_raises(self, rng):
        with pytest.raises(ZeroBreakMagnitude):
            interval_half_width(
                delta=np.zeros(1),
                selection=np.array([[1.0]]),
                omega_x=np.eye(1),
                phi_x=np.eye(1),
                n_units=10,
                c_alpha=5.0,
            )

    def test_degenerate_scale_raises(self):
        with pytest.raises(DegenerateScale):
            interval_half_width(
                delta=np.ones(1),
                selection=np.array([[1.0]]),
                omega_x=np.zeros((1, 1)),
                phi_x=np.eye(1),
                n_units=10,
                c_alpha=5.0,
            )

    def test_unbounded_width_raises(self):
        # den^2 underflows to zero: the width is not finite.
        with pytest.raises(DegenerateScale, match="not finite"):
            interval_half_width(
                delta=np.ones(1),
                selection=np.array([[1.0]]),
                omega_x=np.array([[1e-200]]),
                phi_x=np.eye(1),
                n_units=10,
                c_alpha=5.0,
            )

    @pytest.mark.parametrize("scale", [1e-100, 1e80])
    def test_outcome_scale_leaves_interval(self, scale):
        # num and den^2 both scale as y^4; their ratio does not.
        config = DgpConfig(n_units=50, n_periods=10, seed=3)
        panel, _ = generate(config)
        spec = config.break_spec()
        base = fit_break(panel, spec)
        scaled = fit_break(PanelData(y=scale * panel.y, x=panel.x), spec)
        assert (base.b_hat, base.ci_lower, base.ci_upper) == (5, 4, 6)
        assert (scaled.b_hat, scaled.ci_lower, scaled.ci_upper) == (5, 4, 6)

    def test_alpha_domain(self, rng):
        panel, spec = exact_break_panel(rng)
        with pytest.raises(InputError):
            reference_interval(panel, spec, 7, alpha=0.0, c_alpha=1.0)
        with pytest.raises(InputError):
            reference_interval(panel, spec, 7, alpha=1.5, c_alpha=1.0)

    def test_width_shrinks_with_n(self):
        # Same moments, larger N -> weakly narrower interval.
        widths = [
            interval_half_width(
                delta=np.array([0.3]),
                selection=np.array([[1.0]]),
                omega_x=np.eye(1),
                phi_x=np.eye(1),
                n_units=n,
                c_alpha=11.0,
            )
            for n in (10, 100, 1000)
        ]
        assert widths == sorted(widths, reverse=True)


class TestMoments:
    def test_moment_shapes_and_positivity(self, rng):
        panel = random_panel(rng, n=6, t=12, k=2)
        spec = BreakSpec.from_indices(2, [1])
        fit = cce_fit(panel, spec, 6, ProjectorMode.ESTIMATION)
        omega, phi, sigma_i = moment_estimates(panel, fit)
        assert omega.shape == (2, 2) and phi.shape == (2, 2)
        assert np.all(sigma_i >= 0.0)
        assert np.all(np.linalg.eigvalsh(omega) > 0.0)
        assert np.all(np.linalg.eigvalsh(phi) >= 0.0)

    def test_omega_matches_definition(self, rng):
        panel = random_panel(rng, n=4, t=8, k=2)
        spec = BreakSpec.from_indices(2, [0])
        fit = cce_fit(panel, spec, 4, ProjectorMode.ESTIMATION)
        omega, _, _ = moment_estimates(panel, fit)
        acc = np.zeros((2, 2))
        for i in range(4):
            acc += panel.x[i].T @ panel.x[i]
        assert np.allclose(omega, acc / (4 * 8), atol=1e-12)


class TestTheta:
    def test_noise_free_recovery(self, rng):
        panel, spec = exact_break_panel(
            rng, n=10, t=18, b0=8, beta=(1.2, -0.7), delta=(0.9,)
        )
        theta, cov = estimate_theta(panel, spec, 8)
        assert np.allclose(theta, [1.2, -0.7, 0.9], atol=1e-8)
        assert np.all(np.linalg.eigvalsh(0.5 * (cov + cov.T)) >= -1e-12)

    def test_covariance_scale_shrinks_with_n(self, rng):
        traces = []
        for n in (20, 200):
            x = rng.standard_normal((n, 12, 2))
            y = x @ np.array([1.0, 1.0]) + 0.3 * rng.standard_normal((n, 12))
            panel = PanelData(y=y, x=x)
            spec = BreakSpec.from_indices(2, [1])
            _, cov = estimate_theta(panel, spec, 6)
            traces.append(np.trace(cov))
        assert traces[1] < traces[0]

    def test_engine_theta_is_the_reference_fit(self, rng):
        # At the estimated date: the engine's theta and covariance against the
        # ones cce_fit's TESTING fit gives, or the same error.
        def reference(panel, spec, b):
            fit = cce_fit(panel, spec, b, ProjectorMode.TESTING)
            w = np.concatenate([panel.x, z_regressors(panel, spec, b)], axis=2)
            scores = np.einsum("itp,it->ip", w, fit.residuals)
            half = np.linalg.solve(fit.design_gram, scores.T @ scores)
            return np.concatenate([fit.beta, fit.delta]), np.linalg.solve(fit.design_gram, half.T).T

        def outcome(func, *args):
            try:
                return func(*args), None
            except StatisticalError as err:
                return None, (type(err), str(err))

        cases = [(panel, spec) for panel, spec, _ in acceptance_01_cases()]
        cases.append(exact_break_panel(rng, n=10, t=20, b0=10))
        compared = 0
        for panel, spec in cases:
            profile, err = outcome(estimate_breakpoint, panel, spec)
            if err is not None:
                continue
            got, got_err = outcome(estimate_theta, panel, spec, profile.b_hat)
            want, want_err = outcome(reference, panel, spec, profile.b_hat)
            assert got_err == want_err
            if want_err is None:
                for g, w in zip(got, want):
                    assert np.linalg.norm(g - w) <= 1e-10 * np.linalg.norm(w), (g, w)
                compared += 1
        assert compared >= 50


class TestFitBreak:
    def test_pipeline_consistency(self, rng):
        panel, spec = exact_break_panel(
            rng, n=12, t=16, b0=7, beta=(1.0, 0.5), delta=(2.0,)
        )
        # Add mild noise so the covariance pieces are nondegenerate.
        y = panel.y + 0.05 * rng.standard_normal(panel.y.shape)
        panel = PanelData(y=y, x=panel.x.copy())
        fit = fit_break(panel, spec, alpha=0.05, c_alpha=11.0)
        assert fit.b_hat == 7
        assert fit.ci_lower <= fit.b_hat <= fit.ci_upper
        assert 1 <= fit.ci_lower and fit.ci_upper <= panel.n_periods - 1
        assert fit.delta_hat[0] == pytest.approx(2.0, abs=0.1)
        assert fit.theta_hat[-1] == pytest.approx(2.0, abs=0.1)
        assert fit.ssr_profile.b_hat == fit.b_hat


    def test_a_handled_error_frees_its_engine(self, monkeypatch):
        # With the cyclic collector off, only reference counts free the engine
        # once the handler ends: no frame on the error's traceback may hold the error.
        engines = []
        init = ProfileEngine.__init__

        def record(self, *args):
            init(self, *args)
            engines.append(weakref.ref(self))

        monkeypatch.setattr(ProfileEngine, "__init__", record)
        rng = np.random.default_rng(3)
        x = np.repeat(rng.standard_normal((10, 12, 1)), 2, axis=2)  # x2 duplicates x1
        panel = PanelData(y=x[:, :, 0] + rng.standard_normal((10, 12)), x=x)
        gc.disable()
        try:
            try:
                fit_break(panel, BreakSpec.from_indices(2, [1]))
            except StatisticalError:
                pass
            alive = [engine for engine in engines if engine() is not None]
        finally:
            gc.enable()
        assert len(engines) == 1 and alive == []


def test_estimate_breakpoint_makes_no_argmin_fit(rng, monkeypatch):
    # Only fit_break and the Monte Carlo runner read the fit at the argmin.
    x = rng.standard_normal((30, 16, 2))
    post = np.arange(1, 17) > 7
    y = x @ np.ones(2) + 0.8 * x[:, :, 1] * post + rng.standard_normal((30, 16))
    panel, spec = PanelData(y=y, x=x), BreakSpec.from_indices(2, [1])

    def refuse(**kwargs):
        raise AssertionError("argmin fit built")

    monkeypatch.setattr(estimator, "FitStack", refuse)
    assert estimate_breakpoint(panel, spec).b_hat == 7
    with pytest.raises(AssertionError, match="argmin fit built"):
        fit_break(panel, spec, c_alpha=11.0)


class TestCarriedFit:
    """The interval reads delta and the residuals of the SSR profile's argmin fit."""

    @staticmethod
    def outcome(func, *args):
        try:
            return func(*args), None
        except StatisticalError as err:
            return None, (type(err), str(err))

    def test_carried_fit_is_the_reference_fit(self, rng):
        cases = [(panel, spec) for panel, spec, _ in acceptance_01_cases()]
        cases += [exact_break_panel(rng, n=10, t=20, b0=10), exact_tie_panel(rng)]
        fitted = 0
        for panel, spec in cases:
            carried = ProfileEngine([panel], spec)
            b_hat = carried.profiles()[0].b_hat
            carried_fit = carried.fit([0], [b_hat], ProjectorMode.ESTIMATION)[0]
            got, got_err = self.outcome(_interval, panel, spec, b_hat, 0.05, 11.0, carried_fit)
            want, want_err = self.outcome(reference_interval, panel, spec, b_hat, 0.05, 11.0)
            assert got_err == want_err
            if want_err is not None:
                continue
            reference = cce_fit(panel, spec, b_hat, ProjectorMode.ESTIMATION)
            sigma_i = moment_estimates(panel, reference)[2]
            assert got[0] == want[0] == reference_interval(panel, spec, b_hat, 0.05, c_alpha=11.0)[0]
            np.testing.assert_allclose(got[1].delta, reference.delta, rtol=1e-10, atol=0.0)
            np.testing.assert_allclose(got[2][2], sigma_i, rtol=1e-10, atol=0.0)
            # fit_break passes the same fit on; it fails where TESTING at b_hat is rank-deficient.
            fit, err = self.outcome(fit_break, panel, spec, 0.05, 11.0)
            if err is None:
                assert (fit.b_hat, fit.ci_lower, fit.ci_upper, fit.ci_clamped) == (b_hat, *want[0])
                np.testing.assert_allclose(fit.delta_hat, reference.delta, rtol=1e-10, atol=0.0)
                np.testing.assert_allclose(fit.sigma_eps_i, sigma_i, rtol=1e-10, atol=0.0)
                fitted += 1
        assert fitted >= 50

    @pytest.mark.parametrize("make", [lambda rng: exact_break_panel(rng, n=10, t=20, b0=10), exact_tie_panel])
    def test_guard_decided_argmin_keeps_its_fit(self, rng, make):
        # A near-exact fit and a tied minimum are scored by cce_fit, whose fit is kept.
        panel, spec = make(rng)
        fit = fit_break(panel, spec, c_alpha=11.0)
        reference = cce_fit(panel, spec, fit.b_hat, ProjectorMode.ESTIMATION)
        assert np.array_equal(fit.delta_hat, reference.delta)
        assert np.array_equal(fit.sigma_eps_i, moment_estimates(panel, reference)[2])


@pytest.mark.parametrize(
    "scale, n_estimation, n_testing",
    [(1, 0, 0), (30, 0, 0), (300, 0, 0), (3000, 0, 0), (30000, 238, 169)],
)
def test_strong_factors_send_no_more_dates_to_cce_fit(cce_fit_calls, scale, n_estimation, n_testing):
    # Two factors scaled by s explain almost all of X. Stage 1 partials X exactly, so no
    # subtraction cancels the X̃ block; only an X̃ Gram small against X'X (s = 30000) defers.
    rng = np.random.default_rng(0)
    n, t = 100, 240
    f = scale * rng.standard_normal((t, 2))
    big_gamma = 1.0 + 0.5 * rng.standard_normal((n, 2, 2))
    gamma = 1.0 + 0.5 * rng.standard_normal((n, 2))
    x = np.einsum("tm,imk->itk", f, big_gamma) + rng.standard_normal((n, t, 2))
    post = np.arange(1, t + 1) > 120
    y = x @ np.ones(2) + 0.5 * x[:, :, 1] * post + gamma @ f.T + rng.standard_normal((n, t))
    panel, spec = PanelData(y=y, x=x, d=np.ones((t, 1))), BreakSpec.from_indices(2, [1], trim_fraction=0.15)
    assert estimate_breakpoint(panel, spec).b_hat == 120
    assert len(cce_fit_calls) == n_estimation
    cce_fit_calls.clear()
    assert sup_wald(panel, spec, sw_critical=8.85).argmax_date == 120
    assert len(cce_fit_calls) == n_testing


class TestTestingBasis:
    """Every TESTING pair of the engine projects with ``cce_fit``'s own basis, bit for bit."""

    @staticmethod
    def stacks(rng):
        spec = BreakSpec.from_indices(2, [1])
        for d_cols in (0, 1, 2):
            yield [random_panel(rng, n=5, t=12, d_cols=d_cols)], spec
            yield [random_panel(rng, n=5, t=12, d_cols=d_cols) for _ in range(3)], spec
        col = rng.standard_normal((12, 1))
        collinear = random_panel(rng, n=5, t=12)
        collinear = PanelData(y=collinear.y, x=collinear.x, d=np.hstack([col, 2.0 * col]))
        yield [collinear], spec
        yield [random_panel(rng, n=5, t=12, d_cols=2), collinear, random_panel(rng, n=5, t=12, d_cols=2)], spec
        # T = 7 and seven proxy columns: [D, D(b), X̄, X̄R(b)] has rank T at the inner dates.
        yield [random_panel(rng, n=5, t=7, d_cols=2)], spec
        yield [random_panel(rng, n=5, t=7, d_cols=2) for _ in range(3)], spec

    def test_every_pair_passes_cce_fits_columns_and_gets_its_basis(self, rng, monkeypatch):
        full_rank = 0
        for panels, spec in self.stacks(rng):
            engine, reps = ProfileEngine(panels, spec), range(len(panels))
            dates = trimmed_candidates(spec, panels[0].n_periods)
            seen = []

            def recorded(columns):
                seen.append((columns, basis(columns)))
                return seen[-1][1]

            monkeypatch.setattr(estimator, "basis", recorded)  # after Q0's
            # A panel's dates a chunk at a time, then one date of every panel per chunk.
            pairs = [(s, b) for s in reps for b in dates] + [(s, b) for b in dates for s in reps]
            list(engine.fits(reps, [dates] * len(panels), ProjectorMode.TESTING))
            for b in dates:
                list(engine.fits(reps, [[b]] * len(panels), ProjectorMode.TESTING))
            monkeypatch.undo()
            got = [(columns, q) for chunk_columns, chunk_q in seen for columns, q in zip(chunk_columns, chunk_q)]
            assert len(got) == len(pairs)
            for (s, b), (columns, q) in zip(pairs, got):
                want = estimator.projection_columns(panels[s], spec, b, ProjectorMode.TESTING)
                assert columns.shape == want.shape and columns.tobytes() == want.tobytes()  # sign bits included
                alone = basis(want)
                rank = alone.shape[1]
                assert q[:, :rank].tobytes() == alone.tobytes()
                assert q[:, rank:].tobytes() == np.zeros((q.shape[0], q.shape[1] - rank)).tobytes()
                full_rank += rank == panels[s].n_periods
        assert full_rank > 0

    def test_one_svd_per_testing_chunk(self, rng, monkeypatch):
        panel, spec = random_panel(rng, n=40, t=30, d_cols=2), BreakSpec.from_indices(2, [1])
        svd, calls = np.linalg.svd, []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        monkeypatch.setattr(estimator, "_CHUNK_BYTES", 8 * 2 * 30 * 40 * 4)  # four dates per chunk
        engine = ProfileEngine([panel], spec)
        calls.clear()  # Q0's
        chunks = list(engine.fits([0], [trimmed_candidates(spec, 30)], ProjectorMode.TESTING))
        assert len(chunks) == 6 and all(not fits.excluded for fits in chunks)
        assert calls == [(4, 30, 7)] * 5 + [(2, 30, 7)]
