"""Wald statistics, HAC covariances and the sequential break search."""

import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from panelbreak import (
    BreakSpec,
    DgpConfig,
    HacConfig,
    Kernel,
    PanelData,
    sequential_breaks,
    sup_wald,
    generate,
    wald_at,
    z_regressors,
)
from panelbreak import estimator, wald
from panelbreak.estimator import ProjectorMode, cce_fit
from panelbreak.exceptions import (
    EmptyCandidateSet,
    InputError,
    RankConditionFailure,
    StatisticalError,
)
from panelbreak.panel import testing_candidates as trimmed_candidates
from panelbreak.wald import _sandwich, kernel_weight

from conftest import acceptance_01_cases, exact_break_panel, random_panel


class TestKernels:
    def test_bartlett_weights(self):
        # S_T = 3: lags 1, 2, 3 get 2/3, 1/3, 0.
        assert kernel_weight(Kernel.BARTLETT, 1 / 3) == pytest.approx(2 / 3)
        assert kernel_weight(Kernel.BARTLETT, 2 / 3) == pytest.approx(1 / 3)
        assert kernel_weight(Kernel.BARTLETT, 1.0) == 0.0
        assert kernel_weight(Kernel.BARTLETT, 2.0) == 0.0

    def test_truncated_uniform(self):
        assert kernel_weight(Kernel.TRUNCATED_UNIFORM, 0.99) == 1.0
        assert kernel_weight(Kernel.TRUNCATED_UNIFORM, 1.0) == 1.0
        assert kernel_weight(Kernel.TRUNCATED_UNIFORM, 1.01) == 0.0

    def test_auto_bandwidth(self):
        assert HacConfig().resolve_bandwidth(27) == 3
        assert HacConfig().resolve_bandwidth(10) == 2
        # Perfect cubes, where the float T ** (1/3) falls just short.
        for n_periods, lags in ((63, 3), (64, 4), (124, 4), (125, 5), (1000, 10)):
            assert HacConfig().resolve_bandwidth(n_periods) == lags
        assert HacConfig(bandwidth=7).resolve_bandwidth(10) == 7

    def test_bandwidth_domain(self):
        with pytest.raises(InputError):
            HacConfig(bandwidth=0)


class TestWaldStatistic:
    def test_noise_free_null_is_zero(self, rng):
        x = rng.standard_normal((6, 12, 2))
        panel = PanelData(y=x @ np.array([1.0, -0.5]), x=x)
        spec = BreakSpec.from_indices(2, [1])
        computed = 0
        for b in trimmed_candidates(spec, 12):
            try:
                stat = wald_at(panel, spec, b)
            except RankConditionFailure:
                # Edge candidates where the masked proxies absorb z
                # entirely are legitimately excluded.
                assert b in (1, 11)
                continue
            assert stat == 0.0
            computed += 1
        assert computed >= 8

    def test_noise_free_break_rejects_at_true_date(self, rng):
        panel, spec = exact_break_panel(rng, n=10, t=20, b0=10)
        result = sup_wald(panel, spec)
        assert result.reject_sw
        assert result.argmax_date == 10
        assert result.sw == np.inf

    def test_nonnegative_on_noise(self, rng):
        panel = random_panel(rng, n=20, t=16, k=2)
        spec = BreakSpec.from_indices(2, [1])
        for b in (4, 8, 12):
            assert wald_at(panel, spec, b) >= 0.0

    def test_invariant_to_common_regressor_rotation(self, rng):
        t = 16
        d = np.hstack([np.ones((t, 1)), np.linspace(0, 1, t)[:, None]])
        x = rng.standard_normal((10, t, 2))
        y = x @ np.ones(2) + rng.standard_normal((10, t))
        spec = BreakSpec.from_indices(2, [1])
        a = np.array([[1.0, 0.3], [0.2, 1.0]])  # invertible
        w1 = [wald_at(PanelData(y=y, x=x, d=d), spec, b) for b in (5, 8, 11)]
        w2 = [wald_at(PanelData(y=y, x=x, d=d @ a), spec, b) for b in (5, 8, 11)]
        assert np.allclose(w1, w2, atol=1e-7)

    def test_unit_bandwidth_drops_all_lags(self, rng):
        panel = random_panel(rng, n=12, t=14, k=2)
        spec = BreakSpec.from_indices(2, [0])
        fit = cce_fit(panel, spec, 7, ProjectorMode.TESTING)
        sigma = _sandwich(fit.z_partialled.T[None], fit.residuals.T[None], HacConfig(bandwidth=1))[0][0]
        # Oracle: lag-zero sandwich only.
        zt, eps = fit.z_partialled, fit.residuals
        nt = 12 * 14
        omega = np.einsum("itp,itq->pq", zt, zt) / nt
        psi0 = np.einsum("it,it,itp,itq->pq", eps, eps, zt, zt) / nt
        oracle = np.linalg.inv(omega) @ psi0 @ np.linalg.inv(omega)
        assert np.allclose(sigma, oracle, atol=1e-10)

    @pytest.mark.parametrize("kernel, bandwidth", [(Kernel.BARTLETT, 3), (Kernel.TRUNCATED_UNIFORM, 2)])
    @pytest.mark.parametrize("breaking", [[0], [0, 1]])
    def test_lagged_sandwich_matches_brute_force(self, rng, kernel, bandwidth, breaking):
        panel = random_panel(rng, n=12, t=14, k=2)
        spec = BreakSpec.from_indices(2, breaking)
        fit = cce_fit(panel, spec, 7, ProjectorMode.TESTING)
        hac = HacConfig(kernel=kernel, bandwidth=bandwidth)
        sigma = _sandwich(fit.z_partialled.T[None], fit.residuals.T[None], hac)[0][0]
        # Oracle: Psi = sum_i sum_t sum_s w(|t-s|/S) s_it s_is' / NT, kernels written out.
        weight = {
            Kernel.BARTLETT: lambda u: max(0.0, 1.0 - u),
            Kernel.TRUNCATED_UNIFORM: lambda u: float(u <= 1.0),
        }[kernel]
        zt = fit.z_partialled
        scores = fit.residuals[:, :, None] * zt
        nt = 12 * 14
        psi = sum(
            weight(abs(t - s) / bandwidth) * np.outer(scores[i, t], scores[i, s])
            for i in range(12)
            for t in range(14)
            for s in range(14)
        ) / nt
        omega_inv = np.linalg.inv(np.einsum("itp,itq->pq", zt, zt) / nt)
        assert np.allclose(sigma, omega_inv @ psi @ omega_inv, rtol=0.0, atol=1e-10)


def empty_candidates_case(rng):
    """A panel too short for any trimmed candidate date, and its spec."""
    return random_panel(rng, n=5, t=4, k=2), BreakSpec.from_indices(2, [0, 1])


def all_candidates_failing_case(rng):
    """A panel whose regressors are pure factor terms, so every candidate fails the rank condition."""
    f = rng.standard_normal((12, 2))
    big_gamma = rng.standard_normal((8, 2, 2))
    x = np.einsum("tm,imk->itk", f, big_gamma)
    y = x @ np.ones(2) + rng.standard_normal((8, 12))
    return PanelData(y=y, x=x), BreakSpec.from_indices(2, [1])


class TestSupWald:
    def test_profile_structure(self, rng):
        panel = random_panel(rng, n=15, t=20, k=2)
        spec = BreakSpec.from_indices(2, [1], trim_fraction=0.15)
        result = sup_wald(panel, spec)
        assert result.candidate_dates == tuple(trimmed_candidates(spec, 20))
        assert result.sw == max(result.wald_values)
        assert result.argmax_date in result.candidate_dates
        assert result.reject_sw == (result.sw > result.sw_critical)
        assert result.excluded_dates == ()

    def test_empty_candidates_raise(self, rng):
        with pytest.raises(EmptyCandidateSet):
            sup_wald(*empty_candidates_case(rng))

    def test_alpha_domain(self, rng):
        panel = random_panel(rng, n=5, t=12, k=2)
        spec = BreakSpec.from_indices(2, [0])
        with pytest.raises(InputError):
            sup_wald(panel, spec, alpha=1.0)

    def test_critical_value_is_looked_up_once_per_stack(self, rng, monkeypatch):
        calls = []
        lookup = wald.sup_bessel_critical
        monkeypatch.setattr(wald, "sup_bessel_critical", lambda *args: calls.append(args) or lookup(*args))
        spec = BreakSpec.from_indices(2, [1])
        engine = estimator.ProfileEngine([random_panel(rng, n=15, t=20, k=2) for _ in range(5)], spec)
        results = wald._sup_wald(engine, None, 0.05)
        assert calls == [(1, 0.15, 0.05)]
        assert {result.sw_critical for result in results} == {lookup(1, 0.15, 0.05)}

    def test_all_candidates_failing_raise(self, rng):
        with pytest.raises(RankConditionFailure):
            sup_wald(*all_candidates_failing_case(rng))


class TestChunking:
    def test_chunk_size_does_not_change_values(self, rng, monkeypatch):
        cases = [*acceptance_01_cases(), (*exact_break_panel(rng, n=10, t=20, b0=10), HacConfig())]
        reference_calls = []

        def counted_wald_at(*args):
            reference_calls.append(args[2])
            return wald_at(*args)

        monkeypatch.setattr(wald, "wald_at", counted_wald_at)

        def run(chunk_bytes):
            monkeypatch.setattr(estimator, "_CHUNK_BYTES", chunk_bytes)
            out = []
            for panel, spec, hac in cases:
                try:
                    result = sup_wald(panel, spec, hac)
                except StatisticalError as err:
                    out.append((type(err), str(err)))
                    continue
                out.append((np.array(result.wald_values).tobytes(), result.excluded_dates))
            return out

        one_date = run(1)
        n_reference = len(reference_calls)
        every_date = run(1 << 40)
        assert one_date == every_date
        # The same dates fall back to the reference fit, inside whole-window chunks.
        assert reference_calls[n_reference:] == reference_calls[:n_reference] != []


class TestMemory:
    @pytest.mark.parametrize("n_units, n_periods, breaks", [
        pytest.param(100, 240, (80,), id="100-240-80"),
        pytest.param(5000, 10, (5,), id="5000-10-5"),
        # The search tests five windows; each frees its engine before the next is built.
        pytest.param(100, 240, (80, 160), id="sequential_breaks-100-240-80-160"),
    ])
    def test_sup_wald_peak_is_a_few_copies_of_the_data(self, n_units, n_periods, breaks):
        config = DgpConfig(n_units=n_units, n_periods=n_periods, b0=breaks[0], seed=0)
        panel, _ = generate(config)
        spec = BreakSpec.from_indices(2, [1])
        if len(breaks) > 1:  # the break is undone at the second date
            y = panel.y - config.delta[0] * panel.x[:, :, 1] * (np.arange(1, n_periods + 1) > breaks[1])
            panel = PanelData(y=y, x=panel.x)
        tracemalloc.start()
        try:
            if len(breaks) > 1:
                assert [br.fit.b_hat for br in sequential_breaks(panel, spec, alpha=0.01)] == list(breaks)
            else:
                sup_wald(panel, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * (panel.y.nbytes + panel.x.nbytes)


class TestRankExclusion:
    """The engine excludes a date whose M_X̃ Z̃(b) is rank-deficient beyond doubt."""

    def test_engine_messages_are_the_reference_errors(self):
        config = DgpConfig(n_units=200, n_periods=10, b0=5, delta=(0.35,), seed=0)
        cases = [(panel, spec) for panel, spec, _ in acceptance_01_cases()]
        cases.append((generate(config)[0], config.break_spec()))
        checked = 0
        for panel, spec in cases:
            for fits in estimator.ProfileEngine([panel], spec).fits([0], [trimmed_candidates(spec, panel.n_periods)], ProjectorMode.TESTING):
                for (_, b), message in fits.excluded.items():
                    with pytest.raises(RankConditionFailure) as err:
                        wald_at(panel, spec, b)
                    assert str(err.value) == message
                    checked += 1
        assert checked > 0

    def test_both_branches_run(self, monkeypatch):
        reference_dates, decisions = [], []
        clear_rank = estimator._clear_rank

        def spy_wald_at(panel, spec, b, hac=None):
            reference_dates.append(b)
            return wald_at(panel, spec, b, hac)

        def spy_clear_rank(rz, data_scale):
            decisions.append(clear_rank(rz, data_scale))
            return decisions[-1]

        monkeypatch.setattr(wald, "wald_at", spy_wald_at)
        monkeypatch.setattr(estimator, "_clear_rank", spy_clear_rank)
        excluded_alone = undecided = 0
        for panel, spec, hac in acceptance_01_cases():
            reference_dates.clear()
            decisions.clear()
            try:
                result = sup_wald(panel, spec, hac)
                excluded = set(result.excluded_dates)
            except RankConditionFailure:
                excluded = set(trimmed_candidates(spec, panel.n_periods))
            excluded_alone += len(excluded - set(reference_dates))
            # Each date left undecided by the singular values goes to wald_at.
            assert decisions.count(None) <= len(reference_dates)
            undecided += decisions.count(None)
        assert excluded_alone > 0 and undecided > 0

    def test_benchmark_design_excludes_b1_without_reference_fit(self, cce_fit_calls):
        config = DgpConfig(n_units=200, n_periods=10, b0=5, delta=(0.35,), seed=0)
        result = sup_wald(generate(config)[0], config.break_spec())
        assert 1 in result.excluded_dates
        assert cce_fit_calls == []


class TestSequentialBreaks:
    def _two_break_panel(self, rng, n=80, t=40, b1=13, b2=27, size=1.5):
        x = rng.standard_normal((n, t, 2))
        spec = BreakSpec.from_indices(2, [1])
        y = x @ np.array([1.0, 1.0]) + 0.5 * rng.standard_normal((n, t))
        post1 = np.arange(1, t + 1) > b1
        post2 = np.arange(1, t + 1) > b2
        y = y + size * x[:, :, 1] * post1 - size * x[:, :, 1] * post2
        return PanelData(y=y, x=x), spec

    def test_two_breaks_found_and_sorted(self, rng):
        panel, spec = self._two_break_panel(rng)
        found = sequential_breaks(panel, spec, alpha=0.05, max_breaks=4)
        assert len(found) == 2
        dates = [br.fit.b_hat for br in found]
        assert dates == sorted(dates)
        assert abs(dates[0] - 13) <= 1
        assert abs(dates[1] - 27) <= 1
        for br in found:
            lo, hi = br.window
            assert lo <= br.fit.b_hat <= hi

    def test_cap_respected(self, rng):
        panel, spec = self._two_break_panel(rng)
        found = sequential_breaks(panel, spec, alpha=0.05, max_breaks=1)
        assert len(found) == 1

    def test_null_finds_nothing(self, rng):
        x = rng.standard_normal((60, 30, 2))
        y = x @ np.ones(2) + rng.standard_normal((60, 30))
        spec = BreakSpec.from_indices(2, [1])
        assert sequential_breaks(PanelData(y=y, x=x), spec, alpha=0.01) == []

    def test_one_engine_per_tested_window(self, rng, monkeypatch):
        engines, windows = [], []
        init, test = estimator.ProfileEngine.__init__, wald._sup_wald

        def count_engine(self, panels, spec):
            init(self, panels, spec)
            engines.append(self.panels[0].n_periods)

        def count_window(*args):
            windows.append(args[0].panels[0].n_periods)
            return test(*args)

        monkeypatch.setattr(estimator.ProfileEngine, "__init__", count_engine)
        monkeypatch.setattr(wald, "_sup_wald", count_window)
        panel, spec = self._two_break_panel(rng)
        assert len(sequential_breaks(panel, spec, alpha=0.05, max_breaks=4)) == 2
        assert windows[0] == 40 and len(windows) >= 3
        assert engines == windows  # by window length, in the order built and tested

    def test_full_sample_result_is_reused(self, rng):
        panel, spec = self._two_break_panel(rng)
        full = sup_wald(panel, spec, alpha=0.05)
        accept = replace(full, reject_sw=False)
        assert sequential_breaks(panel, spec, alpha=0.05, full_sample_wald=accept) == []
        found = sequential_breaks(panel, spec, alpha=0.05, full_sample_wald=full)
        assert [br.wald for br in found if br.window == (1, 40)] == [full]

    def test_failed_dating_ends_only_its_sub_window(self):
        # Breaks at 80 and 160. The null window 81..160 rejects spuriously
        # and dates its break at its first period, where the testing-mode
        # rank condition fails; the search must keep the two real breaks.
        config = DgpConfig(n_units=100, n_periods=240, b0=80, seed=305)
        panel, _ = generate(config)
        y = panel.y.copy()
        y[:, 160:] -= config.delta[0] * panel.x[:, 160:, 1]
        panel = PanelData(y=y, x=panel.x, d=np.ones((240, 1)))
        spec = BreakSpec.from_indices(2, [1])
        found = sequential_breaks(panel, spec, alpha=0.01)
        assert [br.fit.b_hat for br in found] == [80, 160]

    def test_short_sub_window_is_skipped(self, monkeypatch):
        # A break at 3 leaves a pre window 1..3, shorter than 2r + 2 = 4:
        # it gets no engine and ends quietly; only 4..40 is searched further.
        engines, init = [], estimator.ProfileEngine.__init__

        def count_engine(self, panels, spec):
            init(self, panels, spec)
            engines.append(self.panels[0].n_periods)

        monkeypatch.setattr(estimator.ProfileEngine, "__init__", count_engine)
        panel, spec = self._two_break_panel(np.random.default_rng(1), b1=3, b2=40)  # no second break
        found = sequential_breaks(panel, spec, alpha=0.05, max_breaks=4)
        assert [(br.fit.b_hat, br.window) for br in found] == [(3, (1, 40))]
        assert engines == [40, 37]

    @pytest.mark.parametrize("case, error", [
        pytest.param(empty_candidates_case, EmptyCandidateSet, id="empty-candidates"),
        pytest.param(all_candidates_failing_case, RankConditionFailure, id="all-candidates-failing"),
    ])
    def test_full_sample_error_is_raised(self, rng, case, error):
        with pytest.raises(error):
            sequential_breaks(*case(rng))

    def test_search_leaves_no_reference_cycle(self, rng):
        # Without the cyclic collector, the panel must go as soon as the caller drops it.
        panel, spec = self._two_break_panel(rng)
        alive = weakref.ref(panel)
        gc.disable()
        try:
            found = sequential_breaks(panel, spec, alpha=0.05, max_breaks=4)
            del panel
            assert alive() is None
        finally:
            gc.enable()
        assert len(found) == 2

    def test_max_breaks_domain(self, rng):
        panel = random_panel(rng, n=5, t=12, k=2)
        spec = BreakSpec.from_indices(2, [0])
        with pytest.raises(InputError):
            sequential_breaks(panel, spec, max_breaks=0)
