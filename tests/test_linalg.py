"""Projection algebra against dense-matrix oracles."""

import math

import numpy as np
import pytest

from panelbreak import PanelData, Projector, cross_sectional_average
from panelbreak.exceptions import InputError, NonFiniteInput
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


def residual_maker(cols, t):
    q = Projector.from_columns(cols, t).q
    return np.eye(t) - q @ q.T


class TestAnnihilator:
    def test_demeaning_two_periods(self):
        assert np.allclose(residual_maker(np.ones((2, 1)), 2), np.array([[0.5, -0.5], [-0.5, 0.5]]))

    def test_annihilates_own_columns(self, rng):
        cols = rng.standard_normal((10, 3))
        assert np.allclose(residual_maker(cols, 10) @ cols, 0.0, atol=1e-12)

    def test_empty_basis_is_identity(self):
        for cols in (None, np.empty((6, 0))):
            proj = Projector.from_columns(cols, 6)
            assert proj.q.shape == (6, 0)
            assert np.array_equal(residual_maker(cols, 6), oracle_annihilator(cols, 6))

    def test_idempotent_and_symmetric(self, rng):
        m = residual_maker(rng.standard_normal((8, 3)), 8)
        assert np.allclose(m @ m, m, atol=1e-12)
        assert np.allclose(m, m.T, atol=1e-12)

    def test_rank_deficient_basis_handled(self, rng):
        col = rng.standard_normal((7, 1))
        cols = np.hstack([col, 2.0 * col, col - col])  # rank 1
        assert Projector.from_columns(cols, 7).q.shape == (7, 1)
        assert np.allclose(residual_maker(cols, 7), oracle_annihilator(cols, 7), atol=1e-10)

    def test_matches_pinv_oracle(self, rng):
        cols = rng.standard_normal((12, 4))
        q = Projector.from_columns(cols, 12).q
        assert np.allclose(q.T @ q, np.eye(4), atol=1e-12)
        assert np.allclose(residual_maker(cols, 12), oracle_annihilator(cols, 12), atol=1e-10)

    def test_nonfinite_basis_rejected(self):
        with pytest.raises(NonFiniteInput):
            Projector.from_columns(np.array([[1.0], [np.nan]]), 2)

    def test_wrong_shape_rejected(self, rng):
        for cols in (rng.standard_normal((5, 2)), rng.standard_normal(6)):
            with pytest.raises(InputError, match="basis must be 6 x q") as err:
                Projector.from_columns(cols, 6)
            assert not isinstance(err.value, NonFiniteInput)


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
