#!/usr/bin/env python3
"""panelbreak benchmark: drives the CLI and the Monte Carlo harness from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of a panelbreak checkout; it imports the package from
``src`` and needs nothing installed.  Inputs are generated from the seed
before timing, with ``dgp.generate`` and ``io.write_panel_csv``; the program
under test receives only the CSV (or the ``DgpConfig`` for ``mc``).

Load model: a closed loop with one client.  One child process runs at a
time, pinned to one BLAS/OpenMP thread, and the next starts when it has
exited.  Operations start until ``--seconds`` have passed (at least one).
Each child is timed from spawn to exit and measured with ``os.wait4``,
which also gives that child's own peak RSS.  Before each operation a fresh
process imports the CLI and makes one cached lookup; ``setup_s`` is the
median of those.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones: a traced run alternates untraced and traced operations, so the
tracing overhead is the difference of their median wall times.  Every
operation's output passes a correctness gate after the timed loop.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--smoke`` runs every workload at tiny shapes, traced and untraced, with
the same gate; it takes well under a minute.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

# Pinned before numpy loads, for this process and every child.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BUDGET_S = 170.0  # the whole run, set-up included, must end within 180 s
SETUP_PROBES = 3  # fewest fresh processes per run for setup_s and the setup.* breakdown
REL_TOL = 1e-8  # reported SSR / Wald value against the cce_fit reference
POLL_S = 0.002

# `setup_s`: what every CLI call pays before it reads its input.
SETUP_CODE = (
    "import panelbreak.cli\n"
    "from panelbreak.limits import sup_bessel_critical\n"
    "sup_bessel_critical(1, 0.15, 0.05)\n"
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("reps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

TRACED_FUNCTIONS = (
    "cli.main",
    "io.read_panel_rows",
    "panel.build_panel",
    "linalg.Projector.from_columns",
    "estimator.cce_fit",
    "estimator.estimate_breakpoint",
    "estimator.fit_break",
    "estimator.confidence_interval",
    "estimator.estimate_theta",
    "wald.sup_wald",
    "wald.delta_covariance",
    "wald.sequential_breaks",
    "limits.argmax_quantile",
    "limits.sup_bessel_critical",
    "dgp.generate",
)

# Medians over fresh processes that import numpy, scipy.stats, then
# panelbreak.cli, then make one cached lookup (child.py setup).
SETUP_BREAKDOWN = (
    "setup.import_numpy_s",
    "setup.import_scipy_stats_s",
    "setup.import_panelbreak_s",
    "limits.cache_load_s",
)
# Counted inside the traced child.
TRACE_COUNTS = ("cli.report_bytes", "io.rows", "limits.tables_simulated")
FUNCTION_METRICS = tuple(
    f"{name}.{part}" for name in TRACED_FUNCTIONS for part in ("calls", "s", "self_s")
)

PER_LAYER = (
    tuple((name, "s") for name in SETUP_BREAKDOWN)
    + (("cli.report_bytes", "bytes"), ("io.rows", "count"), ("limits.tables_simulated", "count"))
    + (("trace.overhead_s", "s"),)
    + tuple((name, "count" if name.endswith(".calls") else "s") for name in FUNCTION_METRICS)
)


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class CliWorkload:
    """``panelbreak detect`` on a generated CSV with planted breaks in ``x2``.

    The first break comes from ``dgp.generate``; each later one reverses
    the shift before it, so regimes alternate between two slopes.
    """

    n_units: int
    n_periods: int
    breaks: tuple
    alpha: float | None = None


@dataclass(frozen=True)
class McWorkload:
    """``run_experiment(DgpConfig(...), "FULL", reps)`` in a fresh child."""

    n_units: int
    n_periods: int
    b0: int
    delta: float
    reps: int


WORKLOADS = {
    # Large N, fixed T: ingest (CSV read + build_panel) dominates, 32 fits.
    "ingest": CliWorkload(5000, 10, (5,)),
    # Long T, two breaks: the SSR profile and HAC sup-Wald dominate, with
    # recursion into sub-windows.  alpha = 0.01 because at 0.05 the three
    # null sub-windows give a spurious rejection on about one seed in five.
    "longT": CliWorkload(100, 240, (80, 160), alpha=0.01),
    # Many tiny panels: per-call overhead and dgp.generate dominate.
    "mc": McWorkload(200, 10, 5, 0.35, 300),
}

# Tiny shapes for --smoke.
SMOKE = {
    "ingest": replace(WORKLOADS["ingest"], n_units=200),
    "longT": replace(WORKLOADS["longT"], n_units=30, n_periods=60, breaks=(20, 40)),
    "mc": replace(WORKLOADS["mc"], reps=20),
}

# Seed-code exact-hit rate and interval coverage of the mc workload; a
# run must land within MC_SIGMAS Monte Carlo standard errors of them.
MC_SEED_RATES = {"exact_hit_rate": 0.98, "ci_coverage": 0.993}
MC_SIGMAS = 3.0


# ---------------------------------------------------------------------------
# Child processes


@dataclass
class ChildResult:
    code: int | None  # exit code; negative for a signal, None when killed at the deadline
    wall_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args, work: Path, deadline: float) -> ChildResult:
    """Run ``python ARGS`` to completion; wall time from spawn to exit."""
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        actions = [
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], child_env(), file_actions=actions)
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                wall = time.perf_counter() - start
                code = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                _, status, usage = os.wait4(pid, 0)
                wall, code = time.perf_counter() - start, None
                break
            time.sleep(POLL_S)
    return ChildResult(code, wall, usage.ru_maxrss / 1024.0, out_path.read_bytes(), err_path.read_bytes())


# ---------------------------------------------------------------------------
# Inputs and the correctness gate


def planted_panel(w: CliWorkload, seed: int):
    from panelbreak.dgp import DgpConfig, generate
    from panelbreak.panel import PanelData

    config = DgpConfig(n_units=w.n_units, n_periods=w.n_periods, b0=w.breaks[0], seed=seed)
    panel, _ = generate(config)
    y = panel.y.copy()
    sign = -1.0
    for b in w.breaks[1:]:
        y[:, b:] += sign * config.delta[0] * panel.x[:, b:, 1]
        sign = -sign
    return PanelData(y=y, x=panel.x)


class CliCase:
    """One generated CSV, the CLI argv that reads it, and its gate."""

    per_op = 1  # gated units per operation

    def __init__(self, w: CliWorkload, seed: int, work: Path):
        import numpy as np
        from panelbreak.io import write_panel_csv
        from panelbreak.panel import BreakSpec, PanelData
        from panelbreak.wald import HacConfig

        self.w = w
        panel = planted_panel(w, seed)
        self.csv = work / "panel.csv"
        write_panel_csv(panel, self.csv, y="y", x_names=["x1", "x2"])
        # The panel the CLI builds: units in build_panel's label order and
        # the default intercept column.
        order = sorted(range(w.n_units), key=lambda i: str(i + 1))
        self.reference = PanelData(y=panel.y[order], x=panel.x[order], d=np.ones((w.n_periods, 1)))
        self.spec = BreakSpec.from_indices(2, [1], trim_fraction=0.15)
        self.hac = HacConfig()
        self.argv = ["detect", "--input", str(self.csv), "--y", "y", "--x", "x1,x2", "--break-x", "x2"]
        if w.alpha is not None:
            self.argv += ["--alpha", repr(w.alpha)]
        self.info = {"rows": w.n_units * w.n_periods, "csv_bytes": self.csv.stat().st_size}
        self._memo: dict = {}

    def plain_args(self):
        return ["-m", "panelbreak.cli", *self.argv]

    def traced_args(self, trace: Path, op_id: int):
        return [str(HERE / "child.py"), "cli", str(trace), str(op_id), "--", *self.argv]

    def _ssr(self, start, stop, b):
        from panelbreak.estimator import ssr_at

        key = ("ssr", start, stop, b)
        if key not in self._memo:
            self._memo[key] = ssr_at(self.reference.slice_periods(start, stop), self.spec, b)
        return self._memo[key]

    def _wald(self, b):
        from panelbreak.wald import wald_at

        key = ("wald", b)
        if key not in self._memo:
            self._memo[key] = wald_at(self.reference, self.spec, b, self.hac)
        return self._memo[key]

    def check(self, stdout: bytes):
        """Return (attempted, failed, problem, block rates) for one operation."""
        stages = json.loads(stdout)["stages"]
        fits = [(*br["window"], br["fit"]) for br in stages.get("breaks", [])]
        wald = stages["sup_wald"]
        a = wald["argmax_date"]["index"]
        got = wald["wald_values"][wald["candidate_dates"].index(a)]
        if not close(got, self._wald(a)):
            return 1, 1, f"sup-Wald at {a}: {got!r} vs wald_at {self._wald(a)!r}", None
        dates = sorted(fit["b_hat"]["index"] for _, _, fit in fits)
        if dates != list(self.w.breaks):
            return 1, 1, f"detected {dates}, planted {list(self.w.breaks)}", None
        for start, stop, fit in fits:
            b = fit["b_hat"]["index"]
            if not fit["ci"]["lower"]["index"] <= b <= fit["ci"]["upper"]["index"]:
                return 1, 1, f"interval {fit['ci']} misses {b}", None
            local = b - start + 1
            profile = fit["ssr_profile"]
            got = profile["ssr"][profile["dates"].index(local)]
            if not close(got, self._ssr(start, stop, local)):
                return 1, 1, f"SSR at {b}: {got!r} vs ssr_at {self._ssr(start, stop, local)!r}", None
        return 1, 0, None, None


class McCase:
    def __init__(self, w: McWorkload, seed: int, work: Path):
        self.w, self.seed = w, seed
        self.per_op = w.reps  # replications are the gated units
        self.info = {"rows": w.n_units * w.n_periods, "reps": w.reps}

    def plain_args(self):
        return self.traced_args("-", 0)

    def traced_args(self, trace, op_id: int):
        w = self.w
        return [str(HERE / "child.py"), "mc", str(trace), str(op_id), str(self.seed),
                str(w.reps), str(w.n_units), str(w.n_periods), str(w.b0), repr(w.delta)]

    def check(self, stdout: bytes):
        out = json.loads(stdout)
        report = out["report"]
        reps = report["replications"]
        rate = out["block_rates"]
        if reps != self.w.reps:
            return self.w.reps, self.w.reps, f"{reps} replications reported", rate
        for name, seed_value in MC_SEED_RATES.items():
            value = report["metrics"][name]["value"]
            se = math.sqrt(seed_value * (1.0 - seed_value) / reps)
            if abs(value - seed_value) > MC_SIGMAS * se:
                return reps, reps, f"{name} {value} is outside {seed_value} +- {MC_SIGMAS} se", rate
        return reps, report["n_errors"], None, rate


def close(got, want) -> bool:
    return abs(got - want) <= REL_TOL * max(abs(want), 1e-300)


def make_case(name: str, seed: int, work: Path, smoke: bool):
    w = (SMOKE if smoke else WORKLOADS)[name]
    return (McCase if isinstance(w, McWorkload) else CliCase)(w, seed, work)


# ---------------------------------------------------------------------------
# Runs


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def add(self, case, child: ChildResult, label: str):
        """Gate one finished child; returns its in-child block rates, if any."""
        try:
            if child.code != 0:
                raise ValueError(f"exit code {child.code}: {child.stderr.decode(errors='replace')[-400:]}")
            attempted, failed, problem, rate = case.check(child.stdout)
        except (ValueError, KeyError, IndexError, TypeError) as err:
            attempted = case.per_op
            failed, problem, rate = attempted, f"{type(err).__name__}: {err}", None
        self.attempted += attempted
        self.failed += failed
        if problem:
            self.problems.append(f"{label}: {problem}")
        return rate


class SetupProbe:
    """Set-up figures of fresh processes, taken one before each operation.

    Spreading the probes over the run, rather than taking them together,
    keeps a slow spell of the shared host from moving their median much.
    No warm-up is needed: this process has already imported the same
    modules, so their bytecode is compiled and their files are cached.
    """

    def __init__(self, work: Path, deadline: float, breakdown: bool):
        self.args = [str(HERE / "child.py"), "setup"] if breakdown else ["-c", SETUP_CODE]
        self.breakdown = breakdown
        self.work, self.deadline = work, deadline
        self.samples: list = []

    def sample(self) -> None:
        child = spawn(self.args, self.work, self.deadline)
        if child.code != 0:
            raise RuntimeError(f"set-up probe failed: {child.stderr.decode(errors='replace')[-400:]}")
        self.samples.append(json.loads(child.stdout) if self.breakdown else {"setup_s": child.wall_s})

    def medians(self, at_least: int) -> dict:
        while len(self.samples) < at_least:
            self.sample()
        return {key: statistics.median(s[key] for s in self.samples) for key in self.samples[0]}


def run_plain(case, seconds: float, probe: SetupProbe, tally: Tally) -> dict:
    walls, rss, rates = [], [], []
    start = time.perf_counter()
    outputs = []
    while not walls or time.perf_counter() - start < seconds:
        probe.sample()
        child = spawn(case.plain_args(), probe.work, probe.deadline)
        walls.append(child.wall_s)
        rss.append(child.maxrss_mb)
        outputs.append(child)
        if child.code is None:
            break
    for i, child in enumerate(outputs):  # the gate runs after the timed loop
        rate = tally.add(case, child, f"op {i}")
        if rate is not None:
            rates.extend(rate)
    print(f"# samples wall_s={[round(w, 4) for w in walls]} "
          f"block_rates={[round(r, 2) for r in rates]}")
    return {
        "wall_s": statistics.median(walls),
        # mc: median over blocks of child.MC_BLOCK replications inside the
        # run_experiment call; CLI workloads: operations per second of the
        # closed loop's busy time.
        "reps_per_s": statistics.median(rates) if rates else len(walls) / sum(walls),
        "peak_rss_mb": statistics.median(rss),
    }


def run_traced(case, seconds: float, probe: SetupProbe, tally: Tally) -> dict:
    from tracer import summarize

    work, deadline = probe.work, probe.deadline
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        probe.sample()
        plain.append(spawn(case.plain_args(), work, deadline))
        trace_path = work / "trace.json"
        traced.append(spawn(case.traced_args(trace_path, len(traced)), work, deadline))
        if plain[-1].code is None or traced[-1].code is None:
            break
        if traced[-1].code != 0:
            continue
        trace = json.loads(trace_path.read_text())
        values = dict(trace["counts"])
        values["cli.report_bytes"] = len(traced[-1].stdout) if isinstance(case, CliCase) else 0
        for name, entry in summarize(trace["spans"]).items():
            for part, value in entry.items():
                values[f"{name}.{part}"] = value
        layers.append(values)
    for i, (p, t) in enumerate(zip(plain, traced)):  # the gate runs after the loop
        tally.add(case, p, f"op {i}")
        tally.add(case, t, f"traced op {i}")
    out = {
        "trace.overhead_s": statistics.median(c.wall_s for c in traced)
        - statistics.median(c.wall_s for c in plain)
    }
    for name in TRACE_COUNTS + FUNCTION_METRICS:
        out[name] = statistics.median(v.get(name, 0) for v in layers) if layers else 0
    return out


def run_workload(name, seed, seconds, trace, work, deadline, probes, smoke=False):
    """Returns (tally, metrics, info) for one run of one workload."""
    tally = Tally()
    case = make_case(name, seed, work, smoke)
    probe = SetupProbe(work, deadline, breakdown=bool(trace))
    if trace:
        metrics = run_traced(case, seconds, probe, tally)
        units = dict(PER_LAYER)
    else:
        metrics = run_plain(case, seconds, probe, tally)
        units = dict(END_TO_END)
    metrics.update(probe.medians(probes))
    return tally, {k: {"value": metrics[k], "unit": units[k]} for k in units}, case.info


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
    }


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def print_result(tally: Tally, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>14.6g} {m['unit']}")
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{'fail_frac':<40} {frac:>14.6g} ratio ({tally.failed} of {tally.attempted})")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload at tiny shapes")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "panelbreak" / "cli.py").is_file():
        print(f"error: no panelbreak sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import panelbreak.cli  # noqa: F401  (compiles and caches what every child imports)

    deadline = time.monotonic() + BUDGET_S
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        print(f"# env {json.dumps(environment())}")
        if args.smoke:
            return smoke(work, deadline)
        tally, metrics, info = run_workload(
            args.workload, args.seed, args.seconds, args.trace, work, deadline, SETUP_PROBES
        )
        print(f"# workload {args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace} input={json.dumps(info)}")
        print_result(tally, metrics)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def smoke(work: Path, deadline: float) -> int:
    total, metrics = Tally(), {}
    for name in WORKLOADS:
        for trace in (0, 1):
            tally, m, info = run_workload(name, 0, 0.0, trace, work, deadline, 1, smoke=True)
            print(f"# smoke {name} trace={trace} input={json.dumps(info)}")
            total.attempted += tally.attempted
            total.failed += tally.failed
            total.problems += [f"{name}: {p}" for p in tally.problems]
            metrics.update({f"{name}.{k}": v for k, v in m.items()})
    print_result(total, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
