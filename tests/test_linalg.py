"""Projection algebra against dense-matrix oracles."""

import math

import numpy as np
import pytest

from panelbreak import PanelData, basis, cross_sectional_average
from panelbreak.exceptions import NonFiniteInput
from panelbreak.linalg import compensated_sum_of_squares

from conftest import oracle_annihilator, random_panel


class TestCrossSectionalAverage:
    def test_explicit_mean(self):
        # Three units with constant regressor values 1, 2 and 6.
        x = np.stack([np.full((2, 1), v) for v in (1.0, 2.0, 6.0)])
        panel = PanelData(y=np.zeros((3, 2)), x=x)
        assert np.allclose(cross_sectional_average(panel), 3.0)

    def test_identical_units_give_common_block(self, rng):
        block = rng.standard_normal((5, 2))
        x = np.stack([block, block, block])
        panel = PanelData(y=np.zeros((3, 5)), x=x)
        assert np.allclose(cross_sectional_average(panel), block)

    def test_antisymmetric_units_cancel(self, rng):
        block = rng.standard_normal((4, 3))
        panel = PanelData(y=np.zeros((2, 4)), x=np.stack([block, -block]))
        assert np.allclose(cross_sectional_average(panel), 0.0)

    def test_shape(self, rng):
        panel = random_panel(rng, n=7, t=9, k=3)
        assert cross_sectional_average(panel).shape == (9, 3)


def residual_maker(cols):
    q = basis(cols)
    return np.eye(len(cols)) - q @ q.T


class TestAnnihilator:
    def test_demeaning_two_periods(self):
        assert np.allclose(residual_maker(np.ones((2, 1))), np.array([[0.5, -0.5], [-0.5, 0.5]]))

    def test_annihilates_own_columns(self, rng):
        cols = rng.standard_normal((10, 3))
        assert np.allclose(residual_maker(cols) @ cols, 0.0, atol=1e-12)

    def test_empty_basis_is_identity(self):
        cols = np.empty((6, 0))
        assert basis(cols).shape == (6, 0)
        assert np.array_equal(residual_maker(cols), oracle_annihilator(cols, 6))
        assert basis(np.empty((3, 6, 0))).shape == (3, 6, 0)

    def test_idempotent_and_symmetric(self, rng):
        m = residual_maker(rng.standard_normal((8, 3)))
        assert np.allclose(m @ m, m, atol=1e-12)
        assert np.allclose(m, m.T, atol=1e-12)

    def test_rank_deficient_basis_handled(self, rng):
        col = rng.standard_normal((7, 1))
        cols = np.hstack([col, 2.0 * col, col - col])  # rank 1
        assert basis(cols).shape == (7, 1)
        assert np.allclose(residual_maker(cols), oracle_annihilator(cols, 7), atol=1e-10)

    def test_matches_pinv_oracle(self, rng):
        cols = rng.standard_normal((12, 4))
        q = basis(cols)
        assert np.allclose(q.T @ q, np.eye(4), atol=1e-12)
        assert np.allclose(residual_maker(cols), oracle_annihilator(cols, 12), atol=1e-10)

    def test_nonfinite_basis_rejected(self, rng):
        with pytest.raises(NonFiniteInput):
            basis(np.array([[1.0], [np.nan]]))
        stack = rng.standard_normal((3, 5, 2))
        stack[2, 4, 1] = np.inf
        with pytest.raises(NonFiniteInput):
            basis(stack)

    def test_stack_is_its_members_zero_padded(self, rng):
        # Ranks 3, 1, 0 and 2: the stack is as wide as the widest member, and
        # each member is its own basis bit for bit, then exact zeros.
        col = rng.standard_normal((9, 1))
        members = [
            rng.standard_normal((9, 3)),
            np.hstack([col, -3.0 * col, 0.0 * col]),
            np.zeros((9, 3)),
            np.hstack([col, rng.standard_normal((9, 1)), col]),
        ]
        stack = basis(np.stack(members))
        assert stack.shape == (4, 9, 3)
        for got, cols in zip(stack, members):
            alone = basis(cols)
            rank = alone.shape[1]
            assert got[:, :rank].tobytes() == alone.tobytes()
            assert got[:, rank:].tobytes() == np.zeros((9, 3 - rank)).tobytes()  # +0.0, sign bits included


class TestCompensatedSum:
    def test_matches_fsum(self, rng):
        v = rng.standard_normal(1000)
        assert compensated_sum_of_squares(v) == math.fsum((v**2).tolist())

    def test_wide_dynamic_range(self):
        v = np.array([1e8] + [1e-8] * 10000)
        exact = 1e16 + 10000 * 1e-16
        assert compensated_sum_of_squares(v) == pytest.approx(exact, rel=0.0, abs=1e-2)

    def test_tensor_input(self, rng):
        v = rng.standard_normal((3, 4, 5))
        assert compensated_sum_of_squares(v) == pytest.approx(float(np.sum(v**2)))
