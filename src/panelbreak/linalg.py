"""Projection algebra: cross-sectional averages, factor-proxy bases, sums of squares.

``basis`` is the one place that decides which singular values of a
factor-proxy set count: ``cce_fit`` and the profile engine take every
basis from it. An annihilator I - QQ' is applied as composed products
(two thin matrix multiplies) with the orthonormal basis Q, never as a
T x T matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import NonFiniteInput
from .panel import PanelData


def cross_sectional_average(panel: PanelData) -> np.ndarray:
    """The T x k matrix of cross-sectional averages x̄_t."""
    return panel.x.mean(axis=0)


def compensated_sum_of_squares(values: np.ndarray) -> float:
    """Sum of squares in extended precision.

    Break-date selection compares SSR values that can differ only in the
    8th significant digit, so plain float accumulation is not enough.
    """
    return math.fsum((values.ravel() ** 2).tolist())


def basis(columns: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the column spans of a T x q set, or of a stack (..., T, q) of them.

    One SVD per set with the cutoff max(T, q) * eps * sigma_max, so I - QQ'
    is the Moore-Penrose residual maker even for a rank-deficient set. The
    result is as wide as the largest rank in the stack, with zero columns
    past each set's own rank; a set taken alone has no zero columns.
    """
    cols = np.asarray(columns, dtype=float)
    if not np.all(np.isfinite(cols)):
        raise NonFiniteInput("annihilator basis contains non-finite values")
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    keep = s > max(cols.shape[-2:]) * np.finfo(float).eps * s[..., :1]
    width = int(keep.sum(axis=-1).max(initial=0))
    return np.where(keep[..., None, :width], u[..., :width], 0.0)
