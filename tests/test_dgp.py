"""The synthetic factor-model generator and the experiment runner."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from panelbreak import DgpConfig, PanelData, dgp, estimator, fit_break, generate, run_experiment, sup_wald, wald
from panelbreak.dgp import _ar1_factors
from panelbreak.exceptions import (
    ConfigInvariantViolation,
    ExperimentError,
    RankConditionFailure,
    RankDeficientDesign,
    ZeroBreakMagnitude,
)


def noiseless(**kwargs):
    base = dict(
        loading_mean=0.0,
        loading_scale=0.0,
        eps_variance_range=(0.0, 0.0),
        n_units=6,
        n_periods=10,
    )
    base.update(kwargs)
    return DgpConfig(**base)


class TestConfig:
    def test_defaults_valid(self):
        cfg = DgpConfig()
        assert np.argmax(cfg.break_spec().selection, axis=0).tolist() == [1]

    def test_break_spec_selects_last_r(self):
        cfg = DgpConfig(k=3, r=2, beta=(1.0, 1.0, 1.0), delta=(1.0, 1.0), b0=4)
        assert np.argmax(cfg.break_spec().selection, axis=0).tolist() == [1, 2]

    @pytest.mark.parametrize(
        "bad",
        [
            dict(r=3),  # r > k
            dict(m=2),  # m > r
            dict(beta=(1.0,)),  # wrong length
            dict(delta=(1.0, 1.0)),  # wrong length
            dict(b0=0),  # outside [r, T-r-1]
            dict(b0=9),
            dict(eps_variance_range=(2.0, 1.0)),
            dict(n_units=1),
            dict(factor_rho=1.0),  # not stationary
            dict(eps_variance_range=(1.0,)),
            dict(beta=(1.0, float("nan"))),
        ],
    )
    def test_invariants(self, bad):
        with pytest.raises(ConfigInvariantViolation):
            DgpConfig(**bad)


class TestGenerate:
    def test_deterministic_in_seed(self):
        cfg = DgpConfig(seed=7)
        p1, t1 = generate(cfg)
        p2, t2 = generate(cfg)
        assert np.array_equal(p1.y, p2.y)
        assert np.array_equal(p1.x, p2.x)
        assert np.array_equal(t1.factors, t2.factors)

    def test_seed_override_changes_draw(self):
        cfg = DgpConfig(seed=7)
        p1, _ = generate(cfg)
        p2, _ = generate(cfg, seed=8)
        assert not np.array_equal(p1.y, p2.y)

    def test_noiseless_null_is_linear_model(self):
        panel, truth = generate(noiseless(b0=None))
        assert np.allclose(panel.y, panel.x @ np.array([1.0, 1.0]), atol=1e-12)
        assert truth.b0 is None

    def test_noiseless_break_shifts_post_periods(self):
        cfg = noiseless(b0=5, delta=(0.7,))
        panel, truth = generate(cfg)
        base = panel.x @ np.array([1.0, 1.0])
        post = np.arange(1, 11) > 5
        expected = base + 0.7 * panel.x[:, :, 1] * post
        assert np.allclose(panel.y, expected, atol=1e-12)

    def test_truth_record_shapes(self):
        cfg = DgpConfig(n_units=9, n_periods=8, m=1, seed=3)
        panel, truth = generate(cfg)
        assert truth.factors.shape == (8, 1)
        assert truth.gamma.shape == (9, 1)
        assert truth.big_gamma.shape == (9, 1, 2)
        lo, hi = cfg.eps_variance_range
        assert np.all((truth.sigma_eps >= lo) & (truth.sigma_eps <= hi))

    def test_known_common_regressors(self):
        panel, _ = generate(DgpConfig(n_known=2, seed=1))
        assert panel.d.shape[1] == 2
        assert np.allclose(panel.d[:, 0], 1.0)

    def test_ar1_factors_persistence(self):
        rng = np.random.default_rng(0)
        f = _ar1_factors(rng, 5000, 1, 0.5)
        rho_hat = np.corrcoef(f[:-1, 0], f[1:, 0])[0, 1]
        assert rho_hat == pytest.approx(0.5, abs=0.05)

    @pytest.mark.parametrize("n_periods, m, seed", [(3, 1, 0), (10, 1, 5), (42, 2, 9)])
    def test_iid_factors_are_the_innovations(self, n_periods, m, seed):
        # At rho = 0 the AR(1) recursion returns its innovations bit for bit.
        cfg = DgpConfig(n_periods=n_periods, r=m, m=m, delta=(1.0,) * m, b0=None, factor_rho=0.0, seed=seed)
        innovations = np.random.default_rng(seed).standard_normal((n_periods, m))
        assert generate(cfg)[1].factors.tobytes() == innovations.tobytes()

    def test_cross_sectional_average_tracks_factor(self):
        # The rotational-consistency mechanism: with one factor, the
        # average regressor is essentially a rotated copy of it.
        panel, truth = generate(DgpConfig(n_units=500, n_periods=40, seed=2))
        xbar = panel.x.mean(axis=0)[:, 0]
        corr = abs(np.corrcoef(xbar, truth.factors[:, 0])[0, 1])
        assert corr > 0.9


class TestRunExperiment:
    def test_full_pipeline_metrics(self):
        report = run_experiment(
            DgpConfig(n_units=50, seed=5),
            pipeline="FULL",
            reps=3,
            c_alpha=11.0,
            sw_critical=8.85,
        )
        assert report.replications == 3
        assert report.n_errors == 0
        for key in (
            "exact_hit_rate",
            "mean_abs_date_error",
            "ci_coverage",
            "ci_mean_width",
            "rejection_rate",
        ):
            value, se = report.metrics[key]
            assert np.isfinite(value) and se >= 0.0

    def test_estimate_only_has_no_rejection_metric(self):
        report = run_experiment(
            DgpConfig(n_units=30, seed=5), pipeline="ESTIMATE", reps=2, c_alpha=11.0
        )
        assert "rejection_rate" not in report.metrics

    def test_deterministic(self):
        cfg = DgpConfig(n_units=30, seed=9)
        r1 = run_experiment(cfg, "ESTIMATE", reps=4, c_alpha=11.0)
        r2 = run_experiment(cfg, "ESTIMATE", reps=4, c_alpha=11.0)
        assert r1.metrics == r2.metrics

    def test_report_serialization(self):
        report = run_experiment(
            DgpConfig(n_units=30, seed=5), "ESTIMATE", reps=2, c_alpha=11.0
        )
        parsed = json.loads(report.to_json())
        assert parsed == report.to_dict()
        text = report.to_text()
        assert "exact_hit_rate" in text

    def test_systematic_failures_abort(self):
        # T = 2r leaves an empty candidate set in every replication.
        cfg = DgpConfig(
            n_units=10,
            n_periods=4,
            k=2,
            r=2,
            m=1,
            beta=(1.0, 1.0),
            delta=(1.0, 1.0),
            b0=None,
            seed=0,
        )
        with pytest.raises(ExperimentError):
            run_experiment(cfg, "TEST", reps=5, sw_critical=8.85)

    def test_no_reference_refit_per_replication(self, cce_fit_calls):
        # The interval reuses the SSR profile's argmin fit, and the testing
        # engine excludes the rank-deficient date b = 1 itself.
        config = DgpConfig(n_units=200, n_periods=10, b0=5, delta=(0.35,), seed=0)
        report = run_experiment(config, "FULL", reps=20)
        assert report.n_errors == 0
        assert cce_fit_calls == []

    def test_failed_replication_counts_in_no_metric(self, monkeypatch):
        lengths = []
        rate, test = dgp._rate, dgp._sup_wald

        def spy_rate(flags):
            lengths.append(len(flags))
            return rate(flags)

        def test_failing_once(*args, **kwargs):
            results = test(*args, **kwargs)  # one call per stack: the second replication's test raised
            results[1] = RankConditionFailure("injected")
            return results

        monkeypatch.setattr(dgp, "_rate", spy_rate)
        monkeypatch.setattr(dgp, "_sup_wald", test_failing_once)
        config = DgpConfig(n_units=200, n_periods=10, b0=5, delta=(0.35,), seed=0)
        report = run_experiment(config, "FULL", reps=5)
        assert report.n_errors == 1
        assert lengths == [4, 4, 4]  # exact hits, coverage, rejections

    def test_benchmark_design_report(self):
        # The benchmark's mc design, pinned to the values of the per-date reference fits.
        config = DgpConfig(n_units=200, n_periods=10, b0=5, delta=(0.35,), seed=0)
        report = run_experiment(config, "FULL", reps=300)
        assert report.n_errors == 0
        assert report.metrics["exact_hit_rate"][0] == 0.9766666666666667
        assert report.metrics["ci_coverage"][0] == 1.0
        assert report.metrics["ci_mean_width"][0] == 3.0

    def test_bad_pipeline(self):
        with pytest.raises(ConfigInvariantViolation):
            run_experiment(DgpConfig(), pipeline="GUESS", reps=1)


def _bits(outcome):
    """An outcome in comparable form: an error by type and message, arrays and floats by their bits."""
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    if dataclasses.is_dataclass(outcome):
        return _bits(tuple(getattr(outcome, f.name) for f in dataclasses.fields(outcome)))
    if isinstance(outcome, (tuple, list)):
        return tuple(_bits(item) for item in outcome)
    if isinstance(outcome, np.ndarray):
        return outcome.dtype.str, outcome.shape, outcome.tobytes()
    return outcome.hex() if isinstance(outcome, float) else outcome


def _guard_path_panels():
    """200 x 10 panels, one down each guard path."""
    config = DgpConfig(n_units=200, n_periods=10, b0=5, delta=(0.35,), seed=0)
    ordinary = generate(config)[0]  # b = 1 is rank-deficient in the testing engine
    rng = np.random.default_rng(3)
    x = rng.standard_normal((200, 10, 2))
    post = np.arange(1, 11) > 5
    exact = PanelData(y=x @ np.ones(2) + 2.0 * x[:, :, 1] * post, x=x)  # a near-exact fit at b = 5
    collinear = PanelData(y=ordinary.y, x=np.stack([x[:, :, 0], 2.0 * x[:, :, 0]], axis=2))  # the X̃ Gram fails
    tied = x.copy()
    tied[:, 3:7, 1] = 0.0  # Z(b) and the SSR are the same for b = 3..7
    tie = PanelData(y=tied @ np.ones(2) + 2.0 * tied[:, :, 1] * post + 0.1 * rng.standard_normal((200, 10)), x=tied)
    zero = PanelData(y=np.zeros((200, 10)), x=x)  # delta-hat is zero, so the interval raises
    return [ordinary, exact, collinear, tie, zero], config.break_spec()


def _stages(engine):
    """Each panel's interval stage, test stage and TESTING fit at b = 5, in that order."""
    n = len(engine.panels)
    return list(zip(
        estimator._intervals(engine, 0.05, 11.0),
        wald._sup_wald(engine, None, 0.05, 8.85),
        engine.fit(range(n), [5] * n, estimator.ProjectorMode.TESTING),
    ))


def test_each_stack_member_gets_what_it_gets_alone():
    panels, spec = _guard_path_panels()
    together = _stages(estimator.ProfileEngine(panels, spec))
    for panel, got in zip(panels, together):
        assert _bits(got) == _bits(_stages(estimator.ProfileEngine([panel], spec))[0])
    intervals, tests, _ = zip(*together)
    assert 1 in tests[0].excluded_dates
    assert isinstance(intervals[2], RankDeficientDesign) and isinstance(intervals[4], ZeroBreakMagnitude)
    assert len(set(intervals[3][0].ssr_values[2:7])) == 1


@pytest.mark.parametrize("reps", [1, 24, 25, 26, 51])
def test_stacked_experiment_is_the_replications_one_at_a_time(reps):
    config = DgpConfig(n_units=50, n_periods=10, b0=5, delta=(0.35,), seed=7)
    spec, c_alpha, sw_critical = config.break_spec(), 11.0, 8.85
    hits, abs_errors, covered, widths, rejections = [], [], [], [], []
    for seed in np.random.SeedSequence(config.seed).spawn(reps):
        panel = generate(config, seed=seed)[0]
        fit = fit_break(panel, spec, 0.05, c_alpha)
        result = sup_wald(panel, spec, alpha=0.05, sw_critical=sw_critical)
        hits.append(fit.b_hat == config.b0)
        abs_errors.append(abs(fit.b_hat - config.b0))
        covered.append(fit.ci_lower <= config.b0 <= fit.ci_upper)
        widths.append(fit.ci_upper - fit.ci_lower + 1)
        rejections.append(result.reject_sw)
    metrics = {
        "exact_hit_rate": dgp._rate(hits),
        "mean_abs_date_error": dgp._mean(abs_errors),
        "ci_coverage": dgp._rate(covered),
        "ci_mean_width": dgp._mean(widths),
        "rejection_rate": dgp._rate(rejections),
    }
    report = run_experiment(config, "FULL", reps=reps, c_alpha=c_alpha, sw_critical=sw_critical)
    assert report.to_json() == dgp.ExperimentReport(reps, "FULL", metrics, 0).to_json()


def test_seeds_are_spawned_a_stack_at_a_time(monkeypatch):
    # Memory up to the first fit does not grow with the number of replications.
    class FirstStack(Exception):
        pass

    def stop(panels, spec):
        raise FirstStack

    monkeypatch.setattr(dgp, "ProfileEngine", stop)
    config = DgpConfig(n_units=50, n_periods=10, b0=5, seed=7)

    def peak(reps):
        tracemalloc.start()
        try:
            with pytest.raises(FirstStack):
                run_experiment(config, "FULL", reps=reps, c_alpha=11.0, sw_critical=8.85)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(20_000) <= peak(5) + 500_000
