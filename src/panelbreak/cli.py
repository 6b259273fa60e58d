"""Command-line surface.

Verbs: ``detect`` (test, then date, then interval, then the search of
the sub-windows), ``test``, ``estimate``, ``ci``, ``simulate`` (Monte Carlo
experiment from a key=value config file) and ``tables`` (critical-value
cache regeneration).

Exit codes: 0 success (including "no break"), 1 usage or parse error,
2 statistical failure (rank or singularity), 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__, limits
from .dgp import DgpConfig, run_experiment
from .estimator import estimate_breakpoint, fit_break
from .exceptions import InputError, PanelBreakError, StatisticalError
from .io import load_panel, read_keyvalue_config, write_text_atomic
from .panel import BreakSpec, PanelData
from .wald import HacConfig, Kernel, sequential_breaks, sup_wald

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STATISTICAL = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _add_data_args(p):
    p.add_argument("--input", required=True, help="long-format panel CSV")
    p.add_argument("--common-input", help="optional time,d... CSV of known common regressors")
    p.add_argument("--y", required=True, help="outcome column name")
    p.add_argument("--x", required=True, help="comma-separated regressor column names")
    p.add_argument("--break-x", required=True, help="comma-separated breaking regressor names")
    p.add_argument("--no-intercept", action="store_true", help="drop the default intercept column of d")


def _add_fit_args(p, verb: str):
    # Each verb takes the flags it reads; the trim only shapes the testing candidates.
    if verb != "estimate":
        p.add_argument("--alpha", type=float, default=0.05)
    if verb in ("test", "detect"):
        p.add_argument("--trim", type=float, default=0.15)
        p.add_argument("--kernel", choices=["bartlett", "uniform"], default="bartlett")
        p.add_argument("--bandwidth", default="auto", help="integer lag bandwidth, or 'auto' for floor(T^(1/3))")
    if verb == "detect":
        p.add_argument("--max-breaks", type=int, default=5)


def _add_output_args(p):
    p.add_argument("--out", help="write the report to this path (default stdout)")
    p.add_argument("--format", choices=["json", "text"], default="json")


def _listed(values) -> str:
    return ",".join(map(str, values))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="panelbreak", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("detect", "test for a break; if found, date it, build the interval, search the sub-windows"),
        ("test", "sup-Wald test only"),
        ("estimate", "SSR profile and break-date estimate only"),
        ("ci", "break-date estimate with confidence interval and coefficients"),
    ]:
        p = sub.add_parser(name, help=helptext)
        _add_data_args(p)
        _add_fit_args(p, name)
        _add_output_args(p)
    p = sub.add_parser("simulate", help="Monte Carlo experiment from a config file")
    p.add_argument("--config", required=True, help="key = value experiment config file")
    _add_output_args(p)
    p = sub.add_parser("tables", help="regenerate the critical-value cache")
    p.add_argument("--orders", default=_listed(limits.DEFAULT_BESSEL_ORDERS), help="comma-separated Bessel orders r")
    p.add_argument("--trims", default=_listed(limits.DEFAULT_TRIMS))
    p.add_argument("--alphas", default=_listed(limits.DEFAULT_ALPHAS))
    p.add_argument("--n-paths", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=limits.SimConfig().seed)
    p.add_argument("--out", help="cache file to write (default: the packaged cache)")
    return parser


def _parse_names(arg: str):
    names = [n.strip() for n in arg.split(",") if n.strip()]
    if not names:
        raise InputError("expected a non-empty comma-separated name list")
    return names


def _parse_numbers(arg: str, convert, flag: str):
    try:
        return [convert(v) for v in _parse_names(arg)]
    except ValueError:
        raise InputError(f"{flag} must be a comma-separated list of numbers") from None


def _build_inputs(args):
    x_names = _parse_names(args.x)
    break_names = _parse_names(args.break_x)
    missing = [n for n in break_names if n not in x_names]
    if missing:
        raise InputError(f"breaking regressors {missing} are not in --x")
    panel = load_panel(
        args.input,
        y=args.y,
        x_names=x_names,
        common_path=args.common_input,
        intercept=not args.no_intercept,
    )
    trim = {"trim_fraction": args.trim} if "trim" in args else {}
    spec = BreakSpec.from_indices(len(x_names), [x_names.index(n) for n in break_names], **trim)
    return panel, spec, x_names, break_names


def _hac(args) -> HacConfig:
    kernel = Kernel.BARTLETT if args.kernel == "bartlett" else Kernel.TRUNCATED_UNIFORM
    if args.bandwidth == "auto":
        return HacConfig(kernel=kernel)
    try:
        bandwidth = int(args.bandwidth)
    except ValueError:
        raise InputError("--bandwidth must be an integer or 'auto'") from None
    return HacConfig(kernel=kernel, bandwidth=bandwidth)


def _date(panel: PanelData, b: int) -> dict:
    return {"index": b, "label": panel.time_labels[b - 1]}


def _wald_payload(panel, result) -> dict:
    return {
        "candidate_dates": list(result.candidate_dates),
        "wald_values": list(result.wald_values),
        "sw": result.sw,
        "sw_critical": result.sw_critical,
        "chi2_critical": result.chi2_critical,
        "reject": result.reject_sw,
        "argmax_date": _date(panel, result.argmax_date),
        "trim_fraction": result.trim_fraction,
        "r": result.r,
        "alpha": result.alpha,
        "excluded_dates": list(result.excluded_dates),
    }


def _fit_payload(panel, fit, x_names, break_names) -> dict:
    se = np.sqrt(np.diag(fit.theta_cov))
    return {
        "b_hat": _date(panel, fit.b_hat),
        "ci": {
            "lower": _date(panel, fit.ci_lower),
            "upper": _date(panel, fit.ci_upper),
            "alpha": fit.alpha,
            "clamped": fit.ci_clamped,
        },
        "delta_hat": dict(zip(break_names, fit.delta_hat.tolist())),
        "beta_hat": dict(zip(x_names, fit.theta_hat[: len(x_names)].tolist())),
        "theta_se": dict(
            zip(list(x_names) + [f"break:{n}" for n in break_names], se.tolist())
        ),
        "ssr_profile": _ssr_payload(fit.ssr_profile),
    }


def _ssr_payload(profile) -> dict:
    return {"dates": list(profile.candidate_dates), "ssr": list(profile.ssr_values)}


def _warnings(wald=None, fits=()) -> list:
    warnings = []
    if wald is not None and wald.excluded_dates:
        warnings.append({"kind": "excluded_candidates", "dates": list(wald.excluded_dates)})
    return warnings + [{"kind": "ci_clamped", "b_hat": f.b_hat} for f in fits if f.ci_clamped]


def _report(args, stages, warnings) -> dict:
    echo = dict(sorted(vars(args).items()))
    return {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "config": echo,
        "stages": stages,
        "warnings": warnings,
    }


def _emit(args, report: dict) -> None:
    if args.format == "json":
        text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    else:
        text = _render_text(report)
    _write_out(args, text)


def _write_out(args, text: str) -> None:
    if args.out:
        write_text_atomic(args.out, text)
    else:
        try:
            sys.stdout.write(text)
        except UnicodeEncodeError as err:  # the text is encoded whole before any of it is written
            raise InputError(f"stdout's encoding ({err.encoding}) cannot hold the report; write it with --out") from None


def _render_text(report: dict) -> str:
    lines = []

    def walk(node, depth):
        pad = "  " * depth
        if isinstance(node, dict):
            for key in sorted(node):
                value = node[key]
                if isinstance(value, (dict, list)):
                    lines.append(f"{pad}{key}:")
                    walk(value, depth + 1)
                else:
                    lines.append(f"{pad}{key}: {value}")
        elif isinstance(node, list):
            for value in node:
                if isinstance(value, (dict, list)):
                    walk(value, depth)
                else:
                    lines.append(f"{pad}- {value}")

    walk(report, 0)
    return "\n".join(lines) + "\n"


def _cmd_detect(args) -> int:
    if args.max_breaks < 1:
        raise InputError("max_breaks must be >= 1")
    panel, spec, x_names, break_names = _build_inputs(args)
    hac = _hac(args)
    stages: dict = {}
    breaks = []
    wald = sup_wald(panel, spec, hac, args.alpha)
    stages["sup_wald"] = _wald_payload(panel, wald)
    if wald.reject_sw:
        breaks = sequential_breaks(
            panel, spec, hac, args.alpha, max_breaks=args.max_breaks, full_sample_wald=wald
        )
        stages["breaks"] = [
            {
                "window": list(br.window),
                "fit": _fit_payload(panel, br.fit, x_names, break_names),
                "sw": br.wald.sw,
                "sw_critical": br.wald.sw_critical,
            }
            for br in breaks
        ]
    else:
        stages["decision"] = "no break detected"
    _emit(args, _report(args, stages, _warnings(wald, [br.fit for br in breaks])))
    return EXIT_OK


def _cmd_test(args) -> int:
    panel, spec, _, _ = _build_inputs(args)
    wald = sup_wald(panel, spec, _hac(args), args.alpha)
    _emit(args, _report(args, {"sup_wald": _wald_payload(panel, wald)}, _warnings(wald)))
    return EXIT_OK


def _cmd_estimate(args) -> int:
    panel, spec, _, _ = _build_inputs(args)
    profile = estimate_breakpoint(panel, spec)
    stages = {
        "estimate": {"b_hat": _date(panel, profile.b_hat), "ssr_profile": _ssr_payload(profile)}
    }
    _emit(args, _report(args, stages, []))
    return EXIT_OK


def _cmd_ci(args) -> int:
    panel, spec, x_names, break_names = _build_inputs(args)
    fit = fit_break(panel, spec, alpha=args.alpha)
    stages = {"fit": _fit_payload(panel, fit, x_names, break_names)}
    _emit(args, _report(args, stages, _warnings(fits=[fit])))
    return EXIT_OK


# Value types of the simulate config keys: the run_experiment arguments,
# then the DgpConfig fields by their annotations.
_SIM_KINDS = {
    "pipeline": "str",
    "reps": "int",
    "alpha": "float",
    **{f.name: f.type for f in fields(DgpConfig)},
}


def _sim_value(key: str, value: str):
    kind = _SIM_KINDS.get(key)
    if kind is None:
        raise InputError(f"unknown simulate config key {key!r}")
    if kind == "str":
        return value
    if "None" in kind and value.lower() == "none":
        return None
    try:
        if kind == "tuple":
            return tuple(float(v) for v in value.split(","))
        return (int if kind.startswith("int") else float)(value)
    except ValueError:
        raise InputError(f"simulate config key {key!r}: {value!r} is not a {kind}") from None


def _cmd_simulate(args) -> int:
    values = {k: _sim_value(k, v) for k, v in read_keyvalue_config(args.config).items()}
    run = {k: values.pop(k) for k in ("pipeline", "reps", "alpha") if k in values}
    report = run_experiment(DgpConfig(**values), **run)
    if args.format == "json":
        text = report.to_json() + "\n"
    else:
        text = report.to_text() + "\n"
    _write_out(args, text)
    return EXIT_OK


def _cmd_tables(args) -> int:
    orders = _parse_numbers(args.orders, int, "--orders")
    if any(r < 1 for r in orders):
        raise InputError("Bessel orders must be >= 1")
    trims = _parse_numbers(args.trims, float, "--trims")
    alphas = _parse_numbers(args.alphas, float, "--alphas")
    if not all(0.0 < a < 1.0 for a in alphas):
        raise InputError("--alphas must lie in (0, 1)")
    sim = limits.SimConfig(n_paths=args.n_paths, seed=args.seed)
    payload = limits.generate_tables(sim, orders, trims, alphas)
    out = args.out or os.fspath(limits._packaged_cache_path())
    limits.write_cache(out, payload)
    sys.stdout.write(f"wrote {len(payload['tables'])} tables to {out}\n")
    for table in payload["tables"]:
        sys.stdout.write(
            f"sup_bessel r={table['r']} eps={table['eps']} quantiles={table['quantiles']}\n"
        )
    return EXIT_OK


_COMMANDS = {
    "detect": _cmd_detect,
    "test": _cmd_test,
    "estimate": _cmd_estimate,
    "ci": _cmd_ci,
    "simulate": _cmd_simulate,
    "tables": _cmd_tables,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (InputError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except StatisticalError as err:
        print(f"statistical failure: {err}", file=sys.stderr)
        return EXIT_STATISTICAL
    except PanelBreakError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
