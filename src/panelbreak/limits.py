"""Quantiles of the two limiting laws.

Law one: the argmax over v of -|v|/2 + B(v) with B a two-sided standard
Brownian motion, which governs the estimated break date. Its CDF is in
closed form (Bai 1997), so its quantiles are found by inverting it, as
are those of the chi-squared law. Both CDFs need only the ``math`` module.
Law two: the supremum over the trimmed fractions of the squared
standardized tied-down Bessel process of order r, which governs the
sup-Wald statistic. It is simulated on a grid.

Simulated quantiles ship in a versioned JSON cache (schema 2). Each entry
is a plain record {r, eps, grid_points, n_paths, seed, quantiles}, keyed
by everything but its quantiles, and is reproducible from those fields.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass
from importlib import resources

import numpy as np

from .exceptions import InputError
from .io import write_text_atomic

_CACHE_SCHEMA_VERSION = 2
_DEFAULT_SEED = 20230815
_PROB_FMT = "%.6f"

DEFAULT_BESSEL_ORDERS = (1, 2, 3, 4, 5, 6)
DEFAULT_TRIMS = (0.05, 0.10, 0.15, 0.20)
DEFAULT_ALPHAS = (0.01, 0.05, 0.10)


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls for the sup-Bessel law."""

    n_paths: int = 200_000
    seed: int = _DEFAULT_SEED
    grid_points: int = 2000  # tau-grid resolution for the Bessel sup

    def __post_init__(self):
        if self.n_paths < 1 or self.grid_points < 10:
            raise InputError("invalid simulation config")


def _entry_key(entry: dict) -> tuple:
    return (entry["r"], round(entry["eps"], 10), entry["grid_points"], entry["n_paths"], entry["seed"])


def _invert_cdf(cdf, prob: float) -> float:
    """Smallest double x >= 0 with cdf(x) >= prob, for prob above cdf(0).

    Bisection, after doubling the upper bracket until it holds ``prob``.
    """
    lo, hi = 0.0, 1.0
    while cdf(hi) < prob:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if cdf(mid) < prob:
            lo = mid
        else:
            hi = mid


# ---------------------------------------------------------------------------
# Chi-squared law, closed form


def _chi_squared_cdf(x: float, r: int, upper: bool = False) -> float:
    """CDF of the chi-squared law with r degrees of freedom, for x >= 0,
    or with ``upper`` its survival function 1 - CDF.

    Even r: the survival function is e^{-x/2} sum_{j < r/2} (x/2)^j / j!.
    Odd r: it is erfc(sqrt(x/2)) + s(x), and the CDF is erf(sqrt(x/2)) - s(x),
    with s(x) = sqrt(2/pi) e^{-x/2} sum_{j=1}^{(r-1)/2} x^{j-1/2} / (1*3*...*(2j-1)).
    """
    half = 0.5 * x
    if r % 2 == 0:
        term = total = 1.0
        for j in range(1, r // 2):
            term *= half / j
            total += term
        tail = math.exp(-half) * total
        return tail if upper else 1.0 - tail
    term, total = math.sqrt(x), 0.0
    for j in range(1, (r + 1) // 2):
        total += term
        term *= x / (2 * j + 1)
    series = math.sqrt(2.0 / math.pi) * math.exp(-half) * total
    if upper:
        return math.erfc(math.sqrt(half)) + series
    return math.erf(math.sqrt(half)) - series


@functools.lru_cache(maxsize=None)
def chi_squared_quantile(r: int, prob: float) -> float:
    """Quantile of the chi-squared law with r degrees of freedom.

    Inverts the closed-form CDF by bisection, as ``argmax_quantile`` does.
    Upper quantiles invert the survival function instead: near 1 the CDF's
    doubles are 1.1e-16 apart, too coarse to place the quantile to the ulp.
    Each (r, prob) is computed once per process.
    """
    if r < 1:
        raise InputError("degrees of freedom r must be >= 1")
    if not (0.0 < prob < 1.0):
        raise InputError("prob must lie in (0, 1)")
    if prob < 0.5:
        return _invert_cdf(lambda x: _chi_squared_cdf(x, r), prob)
    # CDF >= prob is survival <= 1 - prob, which is exact for prob >= 0.5.
    return _invert_cdf(lambda x: -_chi_squared_cdf(x, r, upper=True), prob - 1.0)


# ---------------------------------------------------------------------------
# Argmax law, closed form


def _erfcx(a: float) -> float:
    """Scaled complementary error function e^{a^2} erfc(a), for a >= 0.

    The product overflows to inf * 0 near a = 26.6, so from a = 25 on the
    asymptotic series 1/(a sqrt(pi)) sum_j (-1)^j (2j-1)!! / (2a^2)^j takes
    over; there its first omitted term is below 1e-20.
    """
    if a < 25.0:
        return math.exp(a * a) * math.erfc(a)
    term = total = 1.0
    for j in range(1, 9):
        term *= -(2 * j - 1) / (2.0 * a * a)
        total += term
    return total / (a * math.sqrt(math.pi))


def argmax_cdf(x: float) -> float:
    """CDF of argmax_v {B(v) - |v|/2} (Bai 1997, RESTAT).

    For x > 0, G(x) = 1 + sqrt(x/(2 pi)) e^{-x/8} - (x+5)/2 Phi(-sqrt(x)/2)
    + (3/2) e^x Phi(-3 sqrt(x)/2), and G(-x) = 1 - G(x). Here
    Phi(-z) = erfc(z / sqrt(2)) / 2, and the last term is
    (3/4) e^{-x/8} erfcx(3 sqrt(x/8)), because e^x overflows past x ~ 709.
    """
    if x < 0.0:
        return 1.0 - argmax_cdf(-x)
    decay = math.exp(-x / 8.0)
    return (
        1.0
        + math.sqrt(x / (2.0 * math.pi)) * decay
        - 0.25 * (x + 5.0) * math.erfc(0.5 * math.sqrt(x) / math.sqrt(2.0))
        + 0.75 * decay * _erfcx(3.0 * math.sqrt(x / 8.0))
    )


# ---------------------------------------------------------------------------
# Path simulation


def _sup_bessel_samples(r: int, sim: SimConfig, trims) -> dict:
    """Per-path sup statistics, one sample array per trimming fraction.

    All trims share the same Brownian paths, so one simulation serves
    the whole cache row for a given order r.
    """
    m = sim.grid_points
    tau = np.arange(1, m + 1) / m
    windows = {}
    for eps in trims:
        if not (0.0 < eps < 0.5):
            raise InputError("trimming fraction must lie in (0, 0.5)")
        win = np.flatnonzero((tau >= eps) & (tau <= 1.0 - eps) & (tau < 1.0))
        if win.size < 2:
            raise InputError(f"tau grid too coarse for eps={eps}")
        windows[eps] = slice(win[0], win[-1] + 1)  # a contiguous run: a view, not a copy
    scale = np.zeros(m)  # tau = 1 never enters a window
    scale[:-1] = 1.0 / (tau[:-1] * (1.0 - tau[:-1]))
    rng = np.random.default_rng(np.random.SeedSequence([sim.seed, 7, r]))
    out = {eps: np.empty(sim.n_paths) for eps in trims}
    sqrt_dt = np.sqrt(1.0 / m)
    rows = min(max(256, 2_000_000 // m), sim.n_paths)  # ~2M doubles a block
    paths, sums = np.empty((rows, m)), np.empty((rows, m))  # reused by every block
    done = 0
    while done < sim.n_paths:
        blk = min(rows, sim.n_paths - done)
        path, num = paths[:blk], sums[:blk]
        num[:] = 0.0
        for _ in range(r):
            rng.standard_normal(out=path)
            path *= sqrt_dt
            np.cumsum(path, axis=1, out=path)
            path -= tau * path[:, -1:]  # the Brownian bridge
            num += np.square(path, out=path)
        num *= scale
        for eps, win in windows.items():
            out[eps][done : done + blk] = num[:, win].max(axis=1)
        done += blk
    return out


def _sup_bessel_entries(r: int, sim: SimConfig, trims, probs) -> "list[dict]":
    samples = _sup_bessel_samples(r, sim, trims)
    return [
        {
            "r": r,
            "eps": eps,
            **asdict(sim),
            "quantiles": {
                _PROB_FMT % p: float(np.quantile(samples[eps], p)) for p in sorted(set(probs))
            },
        }
        for eps in trims
    ]


# ---------------------------------------------------------------------------
# Cache

_memory_cache: dict = {}
_packaged_loaded = False


def _packaged_cache_path():
    return resources.files("panelbreak").joinpath("data/critical_values.json")


def _load_packaged():
    global _packaged_loaded
    if _packaged_loaded:
        return
    path = _packaged_cache_path()
    if path.is_file():  # without the shipped tables every lookup simulates
        try:
            load_tables(json.loads(path.read_text()))
        except (ValueError, InputError) as err:
            raise InputError(f"{path}: unreadable critical-value cache: {err}") from None
    _packaged_loaded = True


def load_tables(payload: dict) -> int:
    """Merge a cache payload into the in-memory table store."""
    version = payload.get("schema_version") if isinstance(payload, dict) else None
    if version != _CACHE_SCHEMA_VERSION:
        raise InputError(f"unsupported cache schema {version!r}")
    tables = payload.get("tables", [])
    for raw in tables:
        try:
            entry = {
                "r": int(raw["r"]),
                "eps": float(raw["eps"]),
                "grid_points": int(raw["grid_points"]),
                "n_paths": int(raw["n_paths"]),
                "seed": int(raw["seed"]),
                "quantiles": {str(k): float(v) for k, v in raw["quantiles"].items()},
            }
        except (AttributeError, KeyError, TypeError, ValueError) as err:
            raise InputError(f"malformed cache entry: {err!r}") from None
        _store(entry)
    return len(tables)


def dump_tables() -> dict:
    return {
        "schema_version": _CACHE_SCHEMA_VERSION,
        "tables": [dict(e, quantiles=dict(e["quantiles"])) for e in _memory_cache.values()],
    }


def write_cache(path, payload: dict) -> None:
    """Atomic write (temp file + rename) of the cache payload."""
    write_text_atomic(path, json.dumps(payload, indent=1, sort_keys=True))


def _store(entry: dict) -> dict:
    key = _entry_key(entry)
    existing = _memory_cache.get(key)
    if existing is not None:
        entry = dict(entry, quantiles={**existing["quantiles"], **entry["quantiles"]})
    _memory_cache[key] = entry
    return entry


def clear_memory_cache() -> None:
    global _packaged_loaded
    _memory_cache.clear()
    _packaged_loaded = False


# ---------------------------------------------------------------------------
# Public quantile lookups


def argmax_quantile(prob: float) -> float:
    """Quantile of the argmax law; c_alpha is the prob = 1 - alpha/2 call.

    Inverts ``argmax_cdf`` by bisection. The law is symmetric about zero,
    so the median is 0 and the lower quantiles are the negated upper ones.
    """
    if not (0.0 < prob < 1.0):
        raise InputError("prob must lie in (0, 1)")
    if prob == 0.5:
        return 0.0
    if prob < 0.5:
        return -argmax_quantile(1.0 - prob)
    return _invert_cdf(argmax_cdf, prob)


def sup_bessel_critical(
    r: int, eps: float, alpha: float, sim: SimConfig | None = None
) -> float:
    """(1 - alpha)-quantile of the sup of the squared tied-down Bessel law."""
    if r < 1:
        raise InputError("order r must be >= 1")
    if not (0.0 < eps < 0.5):
        raise InputError("trimming fraction must lie in (0, 0.5)")
    if not (0.0 < alpha < 1.0):
        raise InputError("alpha must lie in (0, 1)")
    sim = sim or SimConfig()
    _load_packaged()
    prob = 1.0 - alpha
    pkey = _PROB_FMT % prob
    entry = _memory_cache.get(_entry_key({"r": r, "eps": eps, **asdict(sim)}))
    if entry is not None and pkey in entry["quantiles"]:
        return entry["quantiles"][pkey]
    return _store(_sup_bessel_entries(r, sim, [eps], [prob])[0])["quantiles"][pkey]


def generate_tables(sim: SimConfig, orders, trims, alphas) -> dict:
    """Simulate and store the sup-Bessel tables of a grid; returns the cache payload."""
    bessel_probs = sorted({1.0 - a for a in alphas})
    tables = [e for r in orders for e in _sup_bessel_entries(r, sim, trims, bessel_probs)]
    for entry in tables:
        _store(entry)
    return {"schema_version": _CACHE_SCHEMA_VERSION, "tables": tables}
