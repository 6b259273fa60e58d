"""Projection algebra: cross-sectional averages, projector bases, sums of squares.

An annihilator I - QQ' is applied as composed products (two thin matrix
multiplies) with the orthonormal basis Q, never as a T x T matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InputError, NonFiniteInput
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


@dataclass(frozen=True)
class Projector:
    """Orthonormal basis of the column span of a T x q basis.

    Q comes from a rank-revealing SVD with cutoff
    max(T, q) * eps * sigma_max, so I - QQ' is the Moore-Penrose residual
    maker even for rank-deficient bases.
    """

    q: np.ndarray  # T x effective rank, orthonormal columns

    @classmethod
    def from_columns(cls, columns: np.ndarray | None, n_rows: int) -> "Projector":
        if columns is None or columns.size == 0:
            empty = np.empty((n_rows, 0))
            empty.setflags(write=False)
            return cls(q=empty)
        cols = np.asarray(columns, dtype=float)
        if cols.ndim != 2 or cols.shape[0] != n_rows:
            raise InputError(f"basis must be {n_rows} x q")
        if not np.all(np.isfinite(cols)):
            raise NonFiniteInput("annihilator basis contains non-finite values")
        u, s, _ = np.linalg.svd(cols, full_matrices=False)
        if s.size:
            cutoff = max(cols.shape) * np.finfo(float).eps * s[0]
            rank = int(np.sum(s > cutoff))
        else:
            rank = 0
        q = u[:, :rank].copy()
        q.setflags(write=False)
        return cls(q=q)
