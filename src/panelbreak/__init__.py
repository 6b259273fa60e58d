"""Structural-break detection, dating and testing for interactive-effects panels."""

__version__ = "0.1.0"  # pyproject.toml reads the package version from here

from .dgp import DgpConfig, DgpTruth, ExperimentReport, generate, run_experiment
from .estimator import (
    BreakFit,
    CceFit,
    ProjectorMode,
    SsrProfile,
    cce_fit,
    estimate_breakpoint,
    estimate_theta,
    fit_break,
    ssr_at,
)
from .limits import SimConfig, argmax_quantile, sup_bessel_critical
from .linalg import basis, cross_sectional_average
from .panel import (
    BreakSpec,
    PanelData,
    estimation_candidates,
    testing_candidates,
    z_regressors,
)
from .wald import (
    DetectedBreak,
    HacConfig,
    Kernel,
    WaldResult,
    sequential_breaks,
    sup_wald,
    wald_at,
)

__all__ = [
    "BreakFit",
    "BreakSpec",
    "CceFit",
    "DetectedBreak",
    "DgpConfig",
    "DgpTruth",
    "ExperimentReport",
    "HacConfig",
    "Kernel",
    "PanelData",
    "ProjectorMode",
    "SimConfig",
    "SsrProfile",
    "WaldResult",
    "argmax_quantile",
    "basis",
    "cce_fit",
    "cross_sectional_average",
    "estimate_breakpoint",
    "estimate_theta",
    "estimation_candidates",
    "fit_break",
    "generate",
    "run_experiment",
    "sequential_breaks",
    "ssr_at",
    "sup_bessel_critical",
    "sup_wald",
    "testing_candidates",
    "wald_at",
    "z_regressors",
]
