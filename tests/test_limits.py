"""Limit-law quantiles: closed form, cache behaviour, published values, reproducibility."""

import json
import math
import os

import numpy as np
import pytest
from scipy.stats import chi2, norm

from panelbreak import SimConfig, argmax_quantile, sup_bessel_critical
from panelbreak.exceptions import InputError
from panelbreak.limits import (
    DEFAULT_ALPHAS,
    DEFAULT_BESSEL_ORDERS,
    DEFAULT_TRIMS,
    _erfcx,
    _sup_bessel_samples,
    argmax_cdf,
    chi_squared_quantile,
    dump_tables,
    load_tables,
    write_cache,
)

from conftest import reference_sup_bessel_samples, simulated_argmax_quantiles

SMALL = SimConfig(n_paths=4000, seed=99, grid_points=400)


class TestPackagedTables:
    def test_argmax_published_value(self):
        # The 97.5th percentile of the argmax law is about 11.
        assert argmax_quantile(0.975) == pytest.approx(11.0, abs=1.0)

    def test_argmax_median_near_zero(self):
        assert abs(argmax_quantile(0.5)) <= 0.2

    def test_argmax_monotone_in_prob(self):
        qs = [argmax_quantile(p) for p in (0.95, 0.975, 0.995)]
        assert qs == sorted(qs)

    def test_sup_bessel_published_values(self):
        # Published sup-statistic critical values: 8.85 (r=1) and
        # 11.79 (r=2) at eps=0.15, alpha=0.05. A modest grid bias
        # pushes simulated values slightly below the published ones.
        assert sup_bessel_critical(1, 0.15, 0.05) == pytest.approx(8.85, abs=0.35)
        assert sup_bessel_critical(2, 0.15, 0.05) == pytest.approx(11.79, abs=0.40)

    def test_monotone_in_order(self):
        crits = [sup_bessel_critical(r, 0.15, 0.05) for r in (1, 2, 3, 4)]
        assert crits == sorted(crits)

    def test_monotone_in_trimming(self):
        # A wider supremum window can only raise the critical value.
        wide = sup_bessel_critical(1, 0.05, 0.05)
        narrow = sup_bessel_critical(1, 0.20, 0.05)
        assert wide >= narrow

    def test_monotone_in_alpha(self):
        crits = [sup_bessel_critical(1, 0.15, a) for a in (0.01, 0.05, 0.10)]
        assert crits == sorted(crits, reverse=True)

    def test_dominates_chi_squared(self):
        for r in DEFAULT_BESSEL_ORDERS:
            for eps in DEFAULT_TRIMS:
                for alpha in DEFAULT_ALPHAS:
                    sup_crit = sup_bessel_critical(r, eps, alpha)
                    assert sup_crit > chi_squared_quantile(r, 1.0 - alpha)

    def test_shipped_values_exact(self):
        # Copied from the schema-1 cache; the schema-2 rewrite kept every bit.
        assert sup_bessel_critical(1, 0.15, 0.05) == 8.679960386675582
        assert sup_bessel_critical(2, 0.05, 0.01) == 16.443444255772906
        assert sup_bessel_critical(6, 0.20, 0.10) == 17.48787720543788

    def test_chi_squared_oracle(self):
        for r in range(1, 7):
            assert chi_squared_quantile(r, 0.5) == pytest.approx(chi2.ppf(0.5, r), rel=1e-13, abs=0.0)
            for p in (0.9, 0.95, 0.975, 0.99, 0.995, 0.999):
                want = chi2.ppf(p, r)
                assert abs(chi_squared_quantile(r, p) - want) <= 32 * np.spacing(want), (r, p)


class TestArgmaxClosedForm:
    def test_centre_and_symmetry(self):
        assert argmax_cdf(0.0) == 0.5
        assert argmax_quantile(0.5) == 0.0
        for x in (1e-9, 0.3, 2.0, 11.0, 50.0, 400.0, 1e4):
            assert argmax_cdf(-x) == 1.0 - argmax_cdf(x)
        for p in (0.01, 0.2, 0.45, 0.9):
            assert argmax_quantile(p) == -argmax_quantile(1.0 - p)

    def test_inverts_cdf(self):
        for p in np.concatenate([np.linspace(0.01, 0.99, 99), [0.995, 0.999, 0.9999, 0.999999]]):
            assert argmax_cdf(argmax_quantile(p)) == pytest.approx(p, rel=0.0, abs=1e-12)

    def test_known_quantiles(self):
        # Bai (1997) tabulates 7.687, 11.033 and 19.767.
        for p, value in ((0.95, 7.6873), (0.975, 11.0333), (0.995, 19.7665)):
            assert argmax_quantile(p) == pytest.approx(value, abs=5e-4)

    def test_extreme_tails_finite_and_monotone(self):
        probs = [0.5, 0.9, 0.99] + [1.0 - 10.0**-j for j in range(3, 13)]
        upper = [argmax_quantile(p) for p in probs]
        assert all(math.isfinite(q) for q in upper)
        assert all(a < b for a, b in zip(upper, upper[1:]))
        lower = [argmax_quantile(1.0 - p) for p in probs[1:]]
        assert all(a > b for a, b in zip(lower, lower[1:]))

    def test_continuous_across_erfcx_switch(self):
        # erfcx(3 sqrt(x/8)) changes from e^{a^2} erfc(a) to its asymptotic series at a = 25.
        x = 5000.0 / 9.0
        assert 3.0 * math.sqrt(x / 8.0) == 25.0
        below = math.nextafter(25.0, 0.0)
        assert _erfcx(below) == pytest.approx(_erfcx(25.0), rel=1e-13)
        assert argmax_cdf(math.nextafter(x, 0.0)) == pytest.approx(argmax_cdf(x), rel=0.0, abs=1e-15)
        assert math.isfinite(argmax_cdf(1e4)) and argmax_cdf(1e4) <= 1.0

    def test_matches_naive_form(self):
        # The textbook form with e^x Phi(-3 sqrt(x)/2), which holds until e^x overflows.
        for x in np.concatenate([np.linspace(1e-6, 5.0, 200), np.linspace(5.0, 699.0, 500)]):
            naive = (
                1.0
                + math.sqrt(x / (2.0 * math.pi)) * math.exp(-x / 8.0)
                - 0.5 * (x + 5.0) * norm.cdf(-math.sqrt(x) / 2.0)
                + 1.5 * math.exp(x) * norm.cdf(-1.5 * math.sqrt(x))
            )
            assert argmax_cdf(x) == pytest.approx(naive, rel=0.0, abs=2e-15)


class TestSimulation:
    def test_argmax_reproducible(self):
        q1, h1 = simulated_argmax_quantiles([0.9, 0.975], n_paths=4000, seed=99, step=0.2)
        q2, h2 = simulated_argmax_quantiles([0.9, 0.975], n_paths=4000, seed=99, step=0.2)
        assert q1 == q2
        assert h1 == h2

    def test_sup_bessel_reproducible(self):
        s1 = _sup_bessel_samples(1, SMALL, [0.15])
        s2 = _sup_bessel_samples(1, SMALL, [0.15])
        assert np.array_equal(s1[0.15], s2[0.15])

    @pytest.mark.parametrize("r", [1, 3])
    def test_in_place_blocks_match_allocating_loop(self, r):
        sim = SimConfig(n_paths=2500, seed=99)  # blocks of 1000, 1000 and 500 paths
        got = _sup_bessel_samples(r, sim, [0.15, 0.05])
        want = reference_sup_bessel_samples(r, sim, [0.15, 0.05])
        assert all(np.array_equal(got[eps], want[eps]) for eps in want)

    def test_shared_paths_order_trims(self):
        # Both trims come from the same paths, so the wider window
        # dominates path by path.
        samples = _sup_bessel_samples(1, SMALL, [0.05, 0.20])
        assert np.all(samples[0.05] >= samples[0.20])

    def test_small_run_tracks_shipped_tables(self):
        # 40k paths on a coarser grid should land within a few percent
        # of the shipped 200k-path values.
        sim = SimConfig(n_paths=40_000, seed=4242, grid_points=1000)
        approx = sup_bessel_critical(1, 0.15, 0.05, sim=sim)
        shipped = sup_bessel_critical(1, 0.15, 0.05)
        assert approx == pytest.approx(shipped, rel=0.05)


class TestCacheIO:
    def test_round_trip(self, tmp_path):
        sup_bessel_critical(1, 0.15, 0.05)  # ensure at least one table is resident
        payload = dump_tables()
        path = tmp_path / "cache.json"
        write_cache(path, payload)
        on_disk = json.loads(path.read_text())
        assert on_disk["schema_version"] == 2
        assert load_tables(on_disk) == len(payload["tables"])

    def test_bad_schema_rejected(self):
        with pytest.raises(InputError):
            load_tables({"schema_version": 999, "tables": []})

    def test_schema_one_rejected(self):
        entry = {
            "law": "sup_bessel", "params": [1, 0.15], "grid_step": 0.0005, "horizon": 1.0,
            "n_paths": 200000, "seed": 20230815, "quantiles": {"0.950000": 8.68},
        }
        with pytest.raises(InputError, match="unsupported cache schema 1"):
            load_tables({"schema_version": 1, "tables": [entry]})

    def test_missing_key_rejected(self):
        sup_bessel_critical(1, 0.15, 0.05)
        entry = dict(dump_tables()["tables"][0])
        del entry["quantiles"]
        with pytest.raises(InputError, match="malformed cache entry"):
            load_tables({"schema_version": 2, "tables": [entry]})

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        path = tmp_path / "cache.json"
        write_cache(path, {"schema_version": 1, "tables": []})
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]

    def test_cache_gets_the_mode_open_would_leave(self, tmp_path):
        # A regenerated packaged cache stays readable by every user of a shared install.
        old = os.umask(0o022)
        try:
            write_cache(tmp_path / "cache.json", {"schema_version": 2, "tables": []})
        finally:
            os.umask(old)
        assert (tmp_path / "cache.json").stat().st_mode & 0o777 == 0o644

    def test_failed_rename_leaves_no_temp(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            write_cache(tmp_path / "cache.json", {"schema_version": 1, "tables": []})
        assert list(tmp_path.iterdir()) == []


class TestDomains:
    def test_prob_domain(self):
        with pytest.raises(InputError):
            argmax_quantile(0.0)
        with pytest.raises(InputError):
            argmax_quantile(1.0)

    def test_chi_squared_domain(self):
        for r, prob in ((0, 0.95), (1, 0.0), (1, 1.0), (2, 1.5)):
            with pytest.raises(InputError):
                chi_squared_quantile(r, prob)

    def test_bessel_domains(self):
        with pytest.raises(InputError):
            sup_bessel_critical(0, 0.15, 0.05)
        with pytest.raises(InputError):
            sup_bessel_critical(1, 0.5, 0.05)
        with pytest.raises(InputError):
            sup_bessel_critical(1, 0.15, 0.0)

    def test_sim_config_domain(self):
        with pytest.raises(InputError):
            SimConfig(n_paths=0)
        with pytest.raises(InputError):
            SimConfig(grid_points=5)
