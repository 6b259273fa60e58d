"""End-to-end command-line runs (in-process, via main(argv))."""

import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import panelbreak
from panelbreak import BreakSpec, DgpConfig, HacConfig, PanelData, SimConfig, generate, limits, run_experiment, sup_wald
from panelbreak.cli import EXIT_OK, EXIT_STATISTICAL, EXIT_USAGE, main
from panelbreak.exceptions import InputError
from panelbreak.io import load_panel, write_panel_csv

from conftest import zero_tail_panel


@pytest.fixture(scope="module")
def null_csv(tmp_path_factory):
    rng = np.random.default_rng(14)
    x = rng.standard_normal((60, 20, 2))
    y = x @ np.ones(2) + rng.standard_normal((60, 20))
    path = tmp_path_factory.mktemp("cli") / "null.csv"
    write_panel_csv(PanelData(y=y, x=x), path)
    return str(path)


@pytest.fixture(scope="module")
def break_csv(tmp_path_factory):
    cfg = DgpConfig(n_units=80, n_periods=20, b0=10, delta=(1.5,), seed=21)
    panel, _ = generate(cfg)
    path = tmp_path_factory.mktemp("cli") / "break.csv"
    write_panel_csv(panel, path)
    return str(path)


@pytest.fixture(scope="module")
def long_csv(tmp_path_factory):
    # 100 x 240 with breaks at 80 and 160: the second reverses the first.
    cfg = DgpConfig(n_units=100, n_periods=240, b0=80, seed=7)
    panel, _ = generate(cfg)
    y = panel.y.copy()
    y[:, 160:] -= cfg.delta[0] * panel.x[:, 160:, 1]
    path = tmp_path_factory.mktemp("cli") / "long.csv"
    write_panel_csv(PanelData(y=y, x=panel.x), path)
    return str(path)


def base_args(csv_path):
    return [
        "--input", csv_path,
        "--y", "y",
        "--x", "x1,x2",
        "--break-x", "x2",
    ]


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestDetect:
    def test_null_reports_no_break(self, capsys, null_csv):
        code, report = run_json(capsys, ["detect", *base_args(null_csv)])
        assert code == EXIT_OK
        assert report["schema_version"] == 1
        wald = report["stages"]["sup_wald"]
        assert not wald["reject"]
        assert wald["sw"] <= wald["sw_critical"]
        assert report["stages"]["decision"] == "no break detected"

    def test_break_detected_and_dated(self, capsys, break_csv):
        code, report = run_json(capsys, ["detect", *base_args(break_csv)])
        assert code == EXIT_OK
        assert report["stages"]["sup_wald"]["reject"]
        breaks = report["stages"]["breaks"]
        assert len(breaks) >= 1
        fit = breaks[0]["fit"]
        assert abs(fit["b_hat"]["index"] - 10) <= 1
        assert fit["ci"]["lower"]["index"] <= fit["b_hat"]["index"] <= fit["ci"]["upper"]["index"]
        assert "x2" in fit["delta_hat"]

    def test_deterministic_output(self, capsys, break_csv):
        code1, out1 = main(["detect", *base_args(break_csv)]), capsys.readouterr().out
        code2, out2 = main(["detect", *base_args(break_csv)]), capsys.readouterr().out
        assert code1 == code2 == EXIT_OK
        assert out1 == out2

    def test_out_file(self, capsys, break_csv, tmp_path):
        out = tmp_path / "report.json"
        code = main(["detect", *base_args(break_csv), "--out", str(out)])
        capsys.readouterr()
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert "stages" in report

    def test_out_file_gets_the_mode_open_would_leave(self, capsys, null_csv, tmp_path):
        old = os.umask(0o022)
        try:
            code = main(["estimate", *base_args(null_csv), "--out", str(tmp_path / "r.json")])
            (tmp_path / "touched").touch()
        finally:
            os.umask(old)
        capsys.readouterr()
        assert code == EXIT_OK
        assert oct((tmp_path / "r.json").stat().st_mode & 0o777) == oct((tmp_path / "touched").stat().st_mode & 0o777)

    def test_failed_out_write_leaves_no_temp_file(self, capsys, null_csv, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        out = tmp_path / "report.json"
        assert main(["test", *base_args(null_csv), "--out", str(out)]) == EXIT_USAGE
        assert "rename failed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("csv", ["null_csv", "break_csv"])
    @pytest.mark.parametrize("max_breaks", ["0", "-1"])
    def test_max_breaks_checked_before_fitting(self, capsys, request, csv, max_breaks, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("tested before validating")

        monkeypatch.setattr("panelbreak.cli.sup_wald", fail)
        argv = ["detect", *base_args(request.getfixturevalue(csv)), "--max-breaks", max_breaks]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "error: max_breaks must be >= 1\n"

    def test_long_panel_makes_no_reference_fit(self, capsys, long_csv, cce_fit_calls):
        # Every date of every window, and theta at each break, come from the engines.
        code, report = run_json(capsys, ["detect", *base_args(long_csv), "--alpha", "0.01"])
        assert code == EXIT_OK
        assert sorted(br["fit"]["b_hat"]["index"] for br in report["stages"]["breaks"]) == [80, 160]
        assert cce_fit_calls == []

    def test_text_format(self, capsys, null_csv):
        code = main(["detect", *base_args(null_csv), "--format", "text"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "sup_wald" in out


class TestOtherVerbs:
    def test_test_verb(self, capsys, null_csv):
        code, report = run_json(capsys, ["test", *base_args(null_csv)])
        assert code == EXIT_OK
        wald = report["stages"]["sup_wald"]
        assert len(wald["candidate_dates"]) == len(wald["wald_values"])
        assert wald["sw"] == max(wald["wald_values"])

    def test_integer_bandwidth(self, capsys, null_csv):
        code, report = run_json(capsys, ["test", *base_args(null_csv), "--bandwidth", "3"])
        assert code == EXIT_OK
        panel, spec = load_panel(null_csv, "y", ["x1", "x2"]), BreakSpec.from_indices(2, [1])
        values = report["stages"]["sup_wald"]["wald_values"]
        assert values == list(sup_wald(panel, spec, HacConfig(bandwidth=3)).wald_values)
        assert values != list(sup_wald(panel, spec).wald_values)  # auto is floor(20^(1/3)) = 2

    def test_estimate_verb(self, capsys, break_csv):
        code, report = run_json(capsys, ["estimate", *base_args(break_csv)])
        assert code == EXIT_OK
        est = report["stages"]["estimate"]
        assert abs(est["b_hat"]["index"] - 10) <= 1
        assert len(est["ssr_profile"]["dates"]) == len(est["ssr_profile"]["ssr"])

    def test_ci_verb(self, capsys, break_csv):
        code, report = run_json(capsys, ["ci", *base_args(break_csv)])
        assert code == EXIT_OK
        fit = report["stages"]["fit"]
        assert fit["ci"]["lower"]["index"] <= fit["b_hat"]["index"]
        assert set(fit["beta_hat"]) == {"x1", "x2"}

    @pytest.mark.parametrize("defect", ["latin-1 panel", "latin-1 common", "long label"])
    def test_unreadable_file_is_usage_error(self, capsys, null_csv, tmp_path, defect):
        panel, common = tmp_path / "p.csv", tmp_path / "d.csv"
        text = open(null_csv, encoding="utf-8").read()
        common.write_text("time,trend\n" + "".join(f"{t},{t}\n" for t in range(1, 21)), encoding="utf-8")
        if defect == "latin-1 panel":
            panel.write_bytes(text.replace("\n1,", "\n\xe9,", 1).encode("latin-1"))
        else:
            panel.write_text(text, encoding="utf-8")
        if defect == "latin-1 common":
            common.write_bytes("time,tr\xe9nd\n1,0\n".encode("latin-1"))
        if defect == "long label":
            panel.write_text(text.replace("\n1,", "\n" + "u" * 200_000 + ",", 1), encoding="utf-8")
        argv = ["estimate", *base_args(str(panel)), "--common-input", str(common)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ("d.csv" if defect == "latin-1 common" else "p.csv") in err


# The flags each fitting verb takes beyond the data and output flags.
DATA_AND_OUTPUT = {"input", "common_input", "y", "x", "break_x", "no_intercept", "out", "format"}
VERB_OPTIONS = {
    "detect": {"alpha", "trim", "kernel", "bandwidth", "max_breaks"},
    "test": {"alpha", "trim", "kernel", "bandwidth"},
    "ci": {"alpha"},
    "estimate": set(),
}


class TestVerbOptions:
    @pytest.mark.parametrize("verb", sorted(VERB_OPTIONS))
    def test_config_echoes_only_the_flags_read(self, capsys, null_csv, verb):
        code, report = run_json(capsys, [verb, *base_args(null_csv)])
        assert code == EXIT_OK
        assert set(report["config"]) == {"command", *DATA_AND_OUTPUT, *VERB_OPTIONS[verb]}

    @pytest.mark.parametrize(
        "verb, flag, value",
        [
            ("test", "--max-breaks", "2"),
            ("ci", "--trim", "0.3"),
            ("ci", "--kernel", "uniform"),
            ("ci", "--bandwidth", "9"),
            ("ci", "--max-breaks", "2"),
            ("estimate", "--alpha", "0.1"),
            ("estimate", "--trim", "0.3"),
            ("estimate", "--kernel", "uniform"),
            ("estimate", "--bandwidth", "9"),
            ("estimate", "--max-breaks", "2"),
        ],
    )
    def test_flag_the_verb_ignores_is_usage_error(self, capsys, null_csv, verb, flag, value):
        assert main([verb, *base_args(null_csv), flag, value]) == EXIT_USAGE
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


class TestSimulate:
    def test_simulate_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "# tiny smoke experiment\n"
            "n_units = 30\nn_periods = 10\nb0 = 5\ndelta = 1.0\n"
            "reps = 3\npipeline = FULL\nseed = 2\n"
        )
        code, report = run_json(capsys, ["simulate", "--config", str(cfg)])
        assert code == EXIT_OK
        assert report["replications"] == 3
        assert "exact_hit_rate" in report["metrics"]

    def test_text_format(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n_units = 30\nn_periods = 10\nb0 = 5\nreps = 2\nseed = 2\n")
        assert main(["simulate", "--config", str(cfg), "--format", "text"]) == EXIT_OK
        want = run_experiment(DgpConfig(n_units=30, n_periods=10, b0=5, seed=2), reps=2).to_text()
        assert capsys.readouterr().out == want + "\n"

    def test_out_file_is_written_atomically(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n_units = 30\nn_periods = 10\nb0 = 5\nreps = 1\nseed = 2\n")
        out = tmp_path / "sim.json"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["replications"] == 1

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        out.unlink()
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sim.cfg"]

    def test_unknown_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("frobnicate = 3\n")
        assert main(["simulate", "--config", str(cfg)]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize(
        "line", ["reps = abc", "n_units = 1.5", "beta = a,b", "n_units = none"]
    )
    def test_malformed_value_is_usage_error(self, capsys, tmp_path, line):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"n_periods = 10\nreps = 1\n{line}\n")
        assert main(["simulate", "--config", str(cfg)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def test_latin1_config_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_bytes("# caf\xe9\nn_units = 30\nreps = 2\n".encode("latin-1"))
        assert main(["simulate", "--config", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "sim.cfg: not UTF-8 text" in err

    @pytest.mark.parametrize("line", [
        "factor_rho = 2", "factor_rho = -1", "eps_variance_range = 1", "beta = 1,nan", "seed = -1", "m = -1",
        "loading_mean = nan", "loading_scale = inf", "v_scale = nan", "eps_variance_range = 0.5,inf",
    ])
    def test_invalid_design_is_usage_error(self, capsys, tmp_path, line):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"n_units = 30\nn_periods = 10\nreps = 2\n{line}\n")
        assert main(["simulate", "--config", str(cfg)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("pipeline, alpha", [("ESTIMATE", "1.5"), ("FULL", "0")])
    def test_alpha_out_of_range_is_usage_error(self, capsys, tmp_path, pipeline, alpha):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"n_units = 30\nn_periods = 10\nreps = 2\npipeline = {pipeline}\nalpha = {alpha}\n")
        assert main(["simulate", "--config", str(cfg)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: alpha must lie in (0, 1")

    def test_none_only_for_b0(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n_units = 30\nn_periods = 10\nb0 = none\nreps = 2\npipeline = TEST\n")
        code, report = run_json(capsys, ["simulate", "--config", str(cfg)])
        assert code == EXIT_OK
        assert set(report["metrics"]) == {"rejection_rate"}


class TestTables:
    def test_small_regeneration(self, capsys, tmp_path):
        out = tmp_path / "cache.json"
        code = main(
            [
                "tables",
                "--orders", "1",
                "--trims", "0.15",
                "--alphas", "0.05",
                "--n-paths", "2000",
                "--seed", "77",
                "--out", str(out),
            ]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 2
        assert len(payload["tables"]) == 1  # one Bessel table; the argmax law is closed form

    def test_written_cache_serves_lookups(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "cache.json"
        argv = ["tables", "--orders", "2", "--trims", "0.1", "--alphas", "0.05"]
        assert main([*argv, "--n-paths", "500", "--seed", "5", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        limits.clear_memory_cache()
        payload = json.loads(out.read_text())
        assert limits.load_tables(payload) == 1

        def fail(*args):
            raise AssertionError("lookup simulated")

        monkeypatch.setattr(limits, "_sup_bessel_samples", fail)
        value = limits.sup_bessel_critical(2, 0.1, 0.05, sim=SimConfig(n_paths=500, seed=5))
        assert value == payload["tables"][0]["quantiles"]["0.950000"]

    @pytest.mark.parametrize(
        "flag, value",
        [("--alphas", "1.5"), ("--alphas", "abc"), ("--alphas", "0"), ("--orders", "1.5")],
    )
    def test_malformed_list_is_usage_error(self, capsys, tmp_path, monkeypatch, flag, value):
        def fail(*args):
            raise AssertionError("simulated before validating")

        monkeypatch.setattr(limits, "_sup_bessel_samples", fail)
        out = tmp_path / "c.json"
        argv = ["tables", "--orders", "1", "--trims", "0.15", "--n-paths", "500", "--out", str(out)]
        assert main([*argv, flag, value]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_bad_order_is_usage_error(self, capsys, tmp_path):
        code = main(["tables", "--orders", "0", "--out", str(tmp_path / "c.json")])
        capsys.readouterr()
        assert code == EXIT_USAGE


class TestFailureModes:
    def test_missing_required_flag(self, capsys):
        assert main(["detect", "--y", "y"]) == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_nonexistent_input(self, capsys):
        code = main(["detect", *base_args("/nonexistent/panel.csv")])
        capsys.readouterr()
        assert code == EXIT_USAGE

    def test_break_x_not_in_x(self, capsys, null_csv):
        argv = ["detect", "--input", null_csv, "--y", "y", "--x", "x1,x2", "--break-x", "x9"]
        assert main(argv) == EXIT_USAGE
        capsys.readouterr()

    def test_seed_is_only_a_tables_option(self, capsys, null_csv):
        # Nothing in detect, test, estimate or ci is random.
        assert main(["detect", *base_args(null_csv), "--seed", "3"]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("y, x", [("y", "x1,x2,x2"), ("x1", "x1,x2")])
    def test_repeated_column_is_usage_error(self, capsys, null_csv, y, x):
        argv = ["ci", "--input", null_csv, "--y", y, "--x", x, "--break-x", "x2"]
        assert main(argv) == EXIT_USAGE
        assert "is named more than once" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["truncated", "not an object"])
    def test_unreadable_packaged_cache_is_usage_error(self, capsys, null_csv, tmp_path, monkeypatch, kind):
        bad = tmp_path / "critical_values.json"
        bad.write_text(limits._packaged_cache_path().read_text()[:100] if kind == "truncated" else "[]")
        monkeypatch.setattr(limits, "_packaged_cache_path", lambda: bad)
        limits.clear_memory_cache()
        try:
            for _ in range(2):  # a failed load is tried again, not skipped
                with pytest.raises(InputError, match="critical_values.json"):
                    limits.sup_bessel_critical(1, 0.15, 0.05)
            assert main(["test", *base_args(null_csv)]) == EXIT_USAGE
            assert "critical_values.json" in capsys.readouterr().err
        finally:
            limits.clear_memory_cache()

    def test_bad_bandwidth(self, capsys, null_csv):
        for bandwidth in ("wide", "0"):
            argv = ["detect", *base_args(null_csv), "--bandwidth", bandwidth]
            assert main(argv) == EXIT_USAGE
            assert capsys.readouterr().err.startswith("error: ")

    def test_collinear_regressors_exit_statistical(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        x1 = rng.standard_normal((10, 12, 1))
        x = np.concatenate([x1, x1], axis=2)  # x2 duplicates x1
        y = x[:, :, 0] + rng.standard_normal((10, 12))
        path = tmp_path / "collinear.csv"
        write_panel_csv(PanelData(y=y, x=x), path)
        code = main(["detect", *base_args(str(path))])
        capsys.readouterr()
        assert code == EXIT_STATISTICAL

    def test_all_zero_break_regressor_gram_exits_statistical(self, capsys, tmp_path):
        # x2 is zero after period 8, so Z(b) is all zero for b >= 8.
        path = tmp_path / "zero.csv"
        write_panel_csv(zero_tail_panel()[0], path)
        assert main(["estimate", *base_args(str(path))]) == EXIT_STATISTICAL
        assert "rank 0 < r=1 at b=8" in capsys.readouterr().err


def test_report_names_the_package_version(capsys, null_csv):
    code, report = run_json(capsys, ["test", *base_args(null_csv)])
    assert code == EXIT_OK and report["package_version"] == panelbreak.__version__


def test_pyproject_takes_the_version_from_the_package():
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as handle:
        project = tomllib.load(handle)
    assert "version" not in project["project"] and "version" in project["project"]["dynamic"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "panelbreak.__version__"}


def test_cli_import_leaves_out_package_metadata():
    # The version comes from panelbreak.__version__, not importlib.metadata.
    src = os.path.dirname(os.path.dirname(panelbreak.__file__))
    code = "import sys, panelbreak.cli; print('importlib.metadata' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_cli_import_skips_heavy_scipy_modules(tmp_path, break_csv):
    # The runtime needs numpy only: importing the CLI loads no scipy module,
    # and detect and simulate still run once every scipy import fails.
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n_units = 30\nn_periods = 10\nb0 = 5\ndelta = 1.0\nreps = 5\nseed = 2\n")
    runs = [
        ["detect", *base_args(break_csv), "--out", str(tmp_path / "detect.json")],
        ["simulate", "--config", str(cfg), "--out", str(tmp_path / "simulate.json")],
    ]
    code = (
        "import json, sys, panelbreak.cli\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "sys.modules['scipy'] = None\n"
        "codes = [panelbreak.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps({'loaded': loaded, 'codes': codes}))\n"
    )
    src = os.path.dirname(os.path.dirname(__import__("panelbreak").__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(runs)], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == {"loaded": [], "codes": [EXIT_OK, EXIT_OK]}
    assert json.loads((tmp_path / "simulate.json").read_text())["replications"] == 5
    assert json.loads((tmp_path / "detect.json").read_text())["stages"]["sup_wald"]["reject"]


def test_text_reports_need_no_utf8_locale(tmp_path):
    # Time labels e-acute 01..12 under the C locale: an --out report has the
    # bytes it has under UTF-8, and a stdout that cannot hold the report is a
    # usage error that names --out, not a traceback.
    rng = np.random.default_rng(5)
    x = rng.standard_normal((20, 12, 2))
    labels = tuple(f"\u00e9{t:02d}" for t in range(1, 13))
    path = tmp_path / "e.csv"
    write_panel_csv(PanelData(y=x @ np.ones(2) + rng.standard_normal((20, 12)), x=x, time_labels=labels), path)
    src = os.path.dirname(os.path.dirname(panelbreak.__file__))
    base = {key: value for key, value in os.environ.items() if key != "PYTHONIOENCODING"}
    locales = {
        "utf8": dict(base, PYTHONPATH=src, PYTHONUTF8="1"),
        "c": dict(base, PYTHONPATH=src, LC_ALL="C", LANG="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0"),
    }

    def run(locale, *extra):
        argv = [sys.executable, "-m", "panelbreak.cli", "ci", *base_args(str(path)), "--format", "text", *extra]
        return subprocess.run(argv, env=locales[locale], capture_output=True)

    reports = []
    for locale in locales:  # one --out path, which the report echoes
        assert run(locale, "--out", str(tmp_path / "report.txt")).returncode == EXIT_OK
        reports.append((tmp_path / "report.txt").read_bytes())
    assert "\u00e9".encode() in reports[0] and reports[0] == reports[1]
    refused = run("c")
    assert refused.returncode == EXIT_USAGE and refused.stdout == b""
    assert refused.stderr.decode() == "error: stdout's encoding (ascii) cannot hold the report; write it with --out\n"


def test_blas_thread_count_changes_no_decision(long_csv):
    # detect and test with one and with two OpenBLAS threads: the same bytes.
    def run(verb, threads):
        src = os.path.dirname(os.path.dirname(__import__("panelbreak").__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        argv = [sys.executable, "-m", "panelbreak.cli", verb, *base_args(long_csv), "--alpha", "0.01"]
        return subprocess.run(argv, env=env, capture_output=True, check=True).stdout

    one = run("detect", "1")
    assert len(json.loads(one)["stages"]["breaks"]) == 2
    assert one == run("detect", "2")
    assert run("test", "1") == run("test", "2")


def test_blas_thread_count_changes_no_simulate_byte():
    # The mc design's simulate report with one and with two OpenBLAS threads: the same bytes.
    src = os.path.dirname(os.path.dirname(panelbreak.__file__))
    config = "n_units = 200\nn_periods = 10\nb0 = 5\ndelta = 0.35\nseed = 401\nreps = 30\npipeline = FULL\n"

    def run(threads, path):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        argv = [sys.executable, "-m", "panelbreak.cli", "simulate", "--config", path, "--format", "json"]
        return subprocess.run(argv, env=env, capture_output=True, check=True).stdout

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mc.cfg")
        with open(path, "w") as handle:
            handle.write(config)
        one = run("1", path)
        assert json.loads(one)["replications"] == 30
        assert one == run("2", path)


def _valid_inputs():
    """A small panel CSV, its common-regressor CSV and a simulate config, as bytes."""
    cfg = DgpConfig(n_units=8, n_periods=12, b0=6, delta=(1.5,), seed=5)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.csv")
        write_panel_csv(generate(cfg)[0], path)
        with open(path, "rb") as handle:
            panel = handle.read()
    common = "time,d1\n" + "".join(f"{t},{np.sin(t):.6f}\n" for t in range(1, 13))
    config = "n_units = 20\nn_periods = 8\nb0 = 4\nreps = 2\nseed = 3\nalpha = 0.05\nfactor_rho = 0.5\n"
    return {"panel": panel, "common": common.encode(), "config": config.encode()}


VALID_INPUTS = _valid_inputs()
# Config values out of their range or not finite: each is a fault of the file.
BAD_CONFIG_LINES = [
    "n_units = 1", "n_periods = 1", "k = 0", "r = 0", "r = 3", "m = 2", "m = -1", "b0 = 0", "b0 = 100",
    "reps = 0", "seed = -1", "pipeline = GUESS", "beta = 1", "delta = 1,2",
    *(f"{key} = {value}" for key in ("alpha", "factor_rho", "loading_mean", "loading_scale", "v_scale", "delta")
      for value in ("nan", "inf", "-inf")),
    "factor_rho = 1", "alpha = 1.5", "alpha = 0", "eps_variance_range = 2,1", "eps_variance_range = 0.5,inf",
    "eps_variance_range = -1,1", "eps_variance_range = 1", "beta = 1,nan",
]


@st.composite
def mutated_input(draw):
    """(kind, bytes, fault): a valid file with one byte-level mutation; ``fault`` when it surely breaks the file."""
    kind = draw(st.sampled_from(sorted(VALID_INPUTS)))
    data = VALID_INPUTS[kind]
    at = draw(st.integers(0, len(data)))
    mutation = draw(st.sampled_from(["utf8", "nul", "truncate", "huge", "header" if kind != "config" else "value"]))
    if mutation == "utf8":  # a byte that starts, or is, no UTF-8 sequence
        return kind, data[:at] + draw(st.sampled_from([b"\xff", b"\xe9", b"\xc3", b"\xed\xa0\x80"])) + data[at:], True
    if mutation == "nul":  # a regressor's name in the common header may hold any character
        return kind, data[:at] + b"\x00" + data[at:], not (kind == "common" and 5 <= at <= data.index(b"\n"))
    if mutation == "truncate":  # a cut at a line end may leave a valid file
        return kind, data[:at], False
    if mutation == "huge":  # a field over csv's limit, or a long config value, which may still be a number
        return kind, data[:at] + b"7" * 200_000 + data[at:], kind != "config"
    if mutation == "value":
        return kind, data + draw(st.sampled_from(BAD_CONFIG_LINES)).encode() + b"\n", True
    header, rest = data.split(b"\n", 1)
    names = header.split(b",")
    j = draw(st.integers(0, len(names) - 1))
    dropped = names[:j] + names[j + 1 :]
    changed = draw(st.sampled_from([[], dropped, dropped + [names[j - 1]], dropped[:1] + dropped]))
    # Without its header the first record is read as one. A common file may lose a regressor's name.
    fault = not (kind == "common" and changed == dropped and names[j] != b"time")
    return kind, (b",".join(changed) + b"\n" if changed else b"") + rest, fault


@settings(max_examples=50, deadline=None)
@given(mutated_input())
def test_mutated_input_files_exit_cleanly(mutated):
    # Any byte-level damage to an input file ends in an exit code, never a traceback,
    # and damage that surely breaks the file is a usage error.
    kind, data, fault = mutated
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in VALID_INPUTS}
        for name, valid in VALID_INPUTS.items():
            with open(paths[name], "wb") as handle:
                handle.write(data if name == kind else valid)
        if kind == "config":
            argv = ["simulate", "--config", paths["config"]]
        else:
            argv = ["detect", *base_args(paths["panel"]), "--common-input", paths["common"]]
        code = main(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_STATISTICAL)
    if fault:
        assert code == EXIT_USAGE
