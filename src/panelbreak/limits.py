"""Quantiles of the two limiting laws, by controlled path simulation.

Law one: the argmax over v of -|v|/2 + B(v) with B a two-sided standard
Brownian motion, which governs the estimated break date. Law two: the
supremum over the trimmed fractions of the squared standardized
tied-down Bessel process of order r, which governs the sup-Wald
statistic. Both are simulated on a grid, with the horizon of the first
law grown adaptively until almost all paths peak well inside it.

Shipped defaults live in a versioned JSON cache; everything is
reproducible from (seed, grid, n_paths).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from enum import Enum
from importlib import resources

import numpy as np
from scipy.special import gammaincinv

from .exceptions import HorizonNotConverged, InputError
from .io import write_text_atomic

_CACHE_SCHEMA_VERSION = 1
_DEFAULT_SEED = 20230815
_PROB_FMT = "%.6f"

DEFAULT_BESSEL_ORDERS = (1, 2, 3, 4, 5, 6)
DEFAULT_TRIMS = (0.05, 0.10, 0.15, 0.20)
DEFAULT_ALPHAS = (0.01, 0.05, 0.10)


class LimitLaw(Enum):
    ARGMAX_TWO_SIDED_BM = "argmax_two_sided_bm"
    SUP_BESSEL = "sup_bessel"


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls for both laws."""

    n_paths: int = 200_000
    seed: int = _DEFAULT_SEED
    step: float = 0.1  # v-grid step for the argmax law
    grid_points: int = 2000  # tau-grid resolution for the Bessel sup
    v_initial: float = 16.0
    v_cap: float = 65536.0
    inner_fraction: float = 0.999

    def __post_init__(self):
        if self.n_paths < 1 or self.step <= 0 or self.grid_points < 10:
            raise InputError("invalid simulation config")


@dataclass(frozen=True)
class QuantileTable:
    law: LimitLaw
    params: tuple  # (r, eps) for SUP_BESSEL, () for ARGMAX
    grid_step: float
    horizon: float
    n_paths: int
    seed: int
    quantiles: dict  # probability (str, 6 decimals) -> value

    def key(self):
        return _table_key(self.law, self.params, self.grid_step, self.n_paths, self.seed)

    def to_dict(self):
        d = asdict(self)
        d["law"] = self.law.value
        d["params"] = list(self.params)
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(
            law=LimitLaw(d["law"]),
            params=tuple(d["params"]),
            grid_step=float(d["grid_step"]),
            horizon=float(d["horizon"]),
            n_paths=int(d["n_paths"]),
            seed=int(d["seed"]),
            quantiles={str(k): float(v) for k, v in d["quantiles"].items()},
        )


def _table_key(law, params, grid_step, n_paths, seed):
    return (law.value, tuple(np.round(params, 10)), round(grid_step, 12), n_paths, seed)


def chi_squared_quantile(r: int, prob: float) -> float:
    """Quantile of the chi-squared law with r degrees of freedom.

    The chi-squared(r) law is Gamma(r/2, 2), so this is the expression
    ``scipy.stats.chi2.ppf`` evaluates, without importing ``scipy.stats``.
    """
    return float(2.0 * gammaincinv(r / 2.0, prob))


# ---------------------------------------------------------------------------
# Path simulation


def _block_size(steps: int) -> int:
    # Keep each temporary around 2M doubles.
    return max(256, int(2_000_000 // max(steps, 1)))


def _argmax_samples_at_horizon(sim: SimConfig, v_half: float, rng) -> np.ndarray:
    """Argmax locations of -|v|/2 + B(v) over [-v_half, v_half]."""
    steps = int(round(v_half / sim.step))
    grid = np.arange(1, steps + 1) * sim.step
    drift = -0.5 * grid
    out = np.empty(sim.n_paths)
    sqrt_step = np.sqrt(sim.step)
    done = 0
    while done < sim.n_paths:
        blk = min(_block_size(steps), sim.n_paths - done)
        best_val = np.zeros(blk)
        best_loc = np.zeros(blk)
        for sign in (1.0, -1.0):
            inc = rng.standard_normal((blk, steps)) * sqrt_step
            vals = np.cumsum(inc, axis=1)
            vals += drift
            idx = np.argmax(vals, axis=1)
            wing_val = vals[np.arange(blk), idx]
            better = wing_val > best_val
            best_val[better] = wing_val[better]
            best_loc[better] = sign * grid[idx[better]]
        out[done : done + blk] = best_loc
        done += blk
    return out


def _argmax_table(sim: SimConfig, probs) -> QuantileTable:
    rng = np.random.default_rng(sim.seed)
    v_half = sim.v_initial
    while True:
        samples = _argmax_samples_at_horizon(sim, v_half, rng)
        inner = np.mean(np.abs(samples) <= 0.5 * v_half)
        if inner >= sim.inner_fraction:
            break
        v_half *= 2.0
        if v_half > sim.v_cap:
            raise HorizonNotConverged(
                f"argmax horizon exceeded cap {sim.v_cap} (inner mass {inner:.4f})"
            )
    qs = {
        _PROB_FMT % p: float(np.quantile(samples, p)) for p in sorted(set(probs))
    }
    return QuantileTable(
        law=LimitLaw.ARGMAX_TWO_SIDED_BM,
        params=(),
        grid_step=sim.step,
        horizon=v_half,
        n_paths=sim.n_paths,
        seed=sim.seed,
        quantiles=qs,
    )


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
        windows[eps] = win
    scale = np.zeros(m)  # tau = 1 never enters a window
    scale[:-1] = 1.0 / (tau[:-1] * (1.0 - tau[:-1]))
    rng = np.random.default_rng(np.random.SeedSequence([sim.seed, 7, r]))
    out = {eps: np.empty(sim.n_paths) for eps in trims}
    sqrt_dt = np.sqrt(1.0 / m)
    done = 0
    while done < sim.n_paths:
        blk = min(_block_size(m), sim.n_paths - done)
        num = np.zeros((blk, m))
        for _ in range(r):
            j = np.cumsum(rng.standard_normal((blk, m)) * sqrt_dt, axis=1)
            bridge = j - tau * j[:, -1:]
            num += bridge * bridge
        stat = num * scale
        for eps, win in windows.items():
            out[eps][done : done + blk] = stat[:, win].max(axis=1)
        done += blk
    return out


def _sup_bessel_tables(r: int, sim: SimConfig, trims, probs) -> "list[QuantileTable]":
    samples = _sup_bessel_samples(r, sim, trims)
    tables = []
    for eps in trims:
        qs = {
            _PROB_FMT % p: float(np.quantile(samples[eps], p))
            for p in sorted(set(probs))
        }
        tables.append(
            QuantileTable(
                law=LimitLaw.SUP_BESSEL,
                params=(r, eps),
                grid_step=1.0 / sim.grid_points,
                horizon=1.0,
                n_paths=sim.n_paths,
                seed=sim.seed,
                quantiles=qs,
            )
        )
    return tables


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
    _packaged_loaded = True
    try:
        path = _packaged_cache_path()
        payload = json.loads(path.read_text())
    except (FileNotFoundError, OSError):
        return
    load_tables(payload)


def load_tables(payload: dict) -> int:
    """Merge a cache payload into the in-memory table store."""
    if payload.get("schema_version") != _CACHE_SCHEMA_VERSION:
        raise InputError(
            f"unsupported cache schema {payload.get('schema_version')!r}"
        )
    tables = payload.get("tables", [])
    for entry in tables:
        _store(QuantileTable.from_dict(entry))
    return len(tables)


def dump_tables() -> dict:
    return {
        "schema_version": _CACHE_SCHEMA_VERSION,
        "tables": [t.to_dict() for t in _memory_cache.values()],
    }


def write_cache(path, payload: dict | None = None) -> None:
    """Atomic write (temp file + rename) of the cache payload."""
    payload = payload if payload is not None else dump_tables()
    write_text_atomic(path, json.dumps(payload, indent=1, sort_keys=True))


def _store(table: QuantileTable) -> QuantileTable:
    existing = _memory_cache.get(table.key())
    if existing is not None:
        merged = dict(existing.quantiles)
        merged.update(table.quantiles)
        table = QuantileTable(
            law=table.law,
            params=table.params,
            grid_step=table.grid_step,
            horizon=table.horizon,
            n_paths=table.n_paths,
            seed=table.seed,
            quantiles=merged,
        )
    _memory_cache[table.key()] = table
    return table


def clear_memory_cache() -> None:
    global _packaged_loaded
    _memory_cache.clear()
    _packaged_loaded = False


# ---------------------------------------------------------------------------
# Public quantile lookups


def argmax_quantile(prob: float, sim: SimConfig | None = None) -> float:
    """Quantile of the argmax law; c_alpha is the prob = 1 - alpha/2 call.

    The law is symmetric about zero, so its upper percentiles are
    positive and the median is zero up to discretization.
    """
    if not (0.0 < prob < 1.0):
        raise InputError("prob must lie in (0, 1)")
    sim = sim or SimConfig()
    _load_packaged()
    key = _table_key(LimitLaw.ARGMAX_TWO_SIDED_BM, (), sim.step, sim.n_paths, sim.seed)
    pkey = _PROB_FMT % prob
    table = _memory_cache.get(key)
    if table is not None and pkey in table.quantiles:
        return table.quantiles[pkey]
    table = _argmax_table(sim, [prob])
    table = _store(table)
    return table.quantiles[pkey]


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
    key = _table_key(
        LimitLaw.SUP_BESSEL, (r, eps), 1.0 / sim.grid_points, sim.n_paths, sim.seed
    )
    prob = 1.0 - alpha
    pkey = _PROB_FMT % prob
    table = _memory_cache.get(key)
    if table is not None and pkey in table.quantiles:
        return table.quantiles[pkey]
    table = _store(_sup_bessel_tables(r, sim, [eps], [prob])[0])
    return table.quantiles[pkey]


def generate_default_tables(
    sim: SimConfig | None = None,
    orders=DEFAULT_BESSEL_ORDERS,
    trims=DEFAULT_TRIMS,
    alphas=DEFAULT_ALPHAS,
) -> dict:
    """Recompute the shipped cache grid; returns the cache payload."""
    sim = sim or SimConfig()
    argmax_probs = sorted({1.0 - a / 2.0 for a in alphas} | {0.5, 0.95})
    bessel_probs = sorted({1.0 - a for a in alphas})
    tables = [_argmax_table(sim, argmax_probs)]
    for r in orders:
        tables.extend(_sup_bessel_tables(r, sim, trims, bessel_probs))
    for t in tables:
        _store(t)
    return {
        "schema_version": _CACHE_SCHEMA_VERSION,
        "tables": [t.to_dict() for t in tables],
    }
