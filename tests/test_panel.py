"""Panel data, break-interacted regressors and candidate sets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panelbreak import (
    BreakSpec,
    PanelData,
    estimation_candidates,
    z_regressors,
)
from panelbreak import testing_candidates as trimmed_candidates
from panelbreak.exceptions import InputError
from panelbreak.panel import post_break_mask

from conftest import random_panel


class TestPanelData:
    def test_too_small_raises(self):
        with pytest.raises(InputError):
            PanelData(y=np.zeros((1, 5)), x=np.zeros((1, 5, 1)))
        with pytest.raises(InputError):
            PanelData(y=np.zeros((3, 1)), x=np.zeros((3, 1, 1)))

    @pytest.mark.parametrize("fields, error", [
        ({"y": np.zeros(6)}, "y must be an N x T matrix"),
        ({"x": np.zeros((2, 3))}, "x must be an N x T x k tensor"),
        ({"x": np.zeros((2, 4, 1))}, "x has leading shape"),
        ({"y": np.full((2, 3), np.nan)}, "panel contains non-finite values"),
        ({"d": np.ones((2, 1))}, "d must be a T x n matrix"),
        ({"d": np.full((3, 1), np.inf)}, "common regressors contain non-finite values"),
        ({"unit_labels": ("a",)}, "label lengths do not match"),
        ({"time_labels": (1, 2)}, "label lengths do not match"),
    ])
    def test_malformed_fields_raise(self, fields, error):
        with pytest.raises(InputError, match=error):
            PanelData(**{"y": np.zeros((2, 3)), "x": np.zeros((2, 3, 1)), **fields})

    def test_arrays_frozen(self, rng):
        panel = random_panel(rng, n=2, t=3, k=1)
        with pytest.raises(ValueError):
            panel.y[0, 0] = 1.0

    def test_slice_periods(self, rng):
        panel = random_panel(rng, n=3, t=8, k=2)
        sub = panel.slice_periods(3, 6)
        assert sub.n_periods == 4
        assert np.array_equal(sub.y, panel.y[:, 2:6])
        assert sub.time_labels == panel.time_labels[2:6]

    def test_slice_bad_window(self, rng):
        panel = random_panel(rng, n=2, t=4, k=1)
        with pytest.raises(InputError):
            panel.slice_periods(0, 3)
        with pytest.raises(InputError):
            panel.slice_periods(3, 2)


class TestBreakSpec:
    def test_from_indices_round_trip(self):
        spec = BreakSpec.from_indices(4, [1, 3])
        assert spec.n_breaking == 2
        assert np.argmax(spec.selection, axis=0).tolist() == [1, 3]

    @pytest.mark.parametrize("breaking", [[-1], [2], [0, 5], [0.5]])
    def test_from_indices_rejects_index_outside_k(self, breaking):
        with pytest.raises(InputError, match="is not an integer in \\[0, 2\\)"):
            BreakSpec.from_indices(2, breaking)

    @given(
        k=st.integers(min_value=1, max_value=8),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_selection_round_trip_property(self, k, data):
        r = data.draw(st.integers(min_value=1, max_value=k))
        idx = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=k - 1),
                min_size=r, max_size=r, unique=True,
            )
        )
        spec = BreakSpec.from_indices(k, idx)
        assert np.argmax(spec.selection, axis=0).tolist() == idx
        assert spec.selection.shape == (k, r)

    def test_non_basis_selection_rejected(self):
        with pytest.raises(InputError):
            BreakSpec(selection=np.array([[0.5], [0.5]]))
        with pytest.raises(InputError):
            BreakSpec(selection=np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(InputError, match="k x r matrix"):
            BreakSpec(selection=np.array([1.0, 0.0]))
        with pytest.raises(InputError, match="more breaking coefficients than regressors"):
            BreakSpec(selection=np.eye(1, 2))

    def test_trim_fraction_domain(self):
        with pytest.raises(InputError):
            BreakSpec.from_indices(2, [0], trim_fraction=0.5)
        with pytest.raises(InputError):
            BreakSpec.from_indices(2, [0], trim_fraction=0.0)

class TestZRegressors:
    def test_mask_edges(self):
        assert not post_break_mask(4, 4 - 1)[:-1].any()
        assert post_break_mask(4, 3)[-1]
        assert post_break_mask(4, 0).all()

    def test_last_period_only(self, rng):
        panel = random_panel(rng, n=2, t=4, k=2)
        spec = BreakSpec.from_indices(2, [0])
        z = z_regressors(panel, spec, 3)
        assert np.all(z[:, :3, :] == 0.0)
        assert np.array_equal(z[:, 3, 0], panel.x[:, 3, 0])

    def test_b_zero_keeps_everything(self, rng):
        panel = random_panel(rng, n=2, t=4, k=2)
        spec = BreakSpec.from_indices(2, [1])
        z = z_regressors(panel, spec, 0)
        assert np.array_equal(z[:, :, 0], panel.x[:, :, 1])

    def test_selected_coordinate(self):
        # k=2, x_{i,t} = (1, 5), second coordinate breaks, t > b.
        x = np.tile(np.array([1.0, 5.0]), (2, 3, 1))
        panel = PanelData(y=np.zeros((2, 3)), x=x)
        spec = BreakSpec.from_indices(2, [1])
        z = z_regressors(panel, spec, 1)
        assert np.array_equal(z[0, :, 0], np.array([0.0, 5.0, 5.0]))

    def test_domain(self, rng):
        panel = random_panel(rng, n=2, t=4, k=1)
        spec = BreakSpec.from_indices(1, [0])
        with pytest.raises(InputError):
            z_regressors(panel, spec, 4)
        with pytest.raises(InputError):
            z_regressors(panel, spec, -1)


class TestCandidateSets:
    def test_estimation_range(self):
        spec = BreakSpec.from_indices(3, [0, 2])
        assert estimation_candidates(spec, 10) == list(range(2, 8))

    def test_minimal_sample(self):
        # T = 2r + 2 leaves exactly two candidates: r and r + 1.
        spec = BreakSpec.from_indices(2, [0, 1])
        assert estimation_candidates(spec, 6) == [2, 3]

    def test_too_short_is_empty(self):
        spec = BreakSpec.from_indices(2, [0, 1])
        assert estimation_candidates(spec, 4) == []

    def test_trimmed_weekly_example(self):
        # T = 38, eps = 0.15: floor(5.7) = 5 through floor(32.3) = 32.
        spec = BreakSpec.from_indices(2, [1], trim_fraction=0.15)
        assert trimmed_candidates(spec, 38) == list(range(5, 33))

    def test_trimmed_subset_of_estimation(self):
        for t in (6, 9, 14, 23, 38):
            for r in (1, 2):
                spec = BreakSpec.from_indices(2, list(range(r)), trim_fraction=0.15)
                full = set(estimation_candidates(spec, t))
                assert set(trimmed_candidates(spec, t)) <= full

    @given(
        t=st.integers(min_value=4, max_value=60),
        eps=st.floats(min_value=0.01, max_value=0.49),
    )
    @settings(max_examples=100, deadline=None)
    def test_trimmed_bounds_property(self, t, eps):
        spec = BreakSpec.from_indices(2, [0], trim_fraction=eps)
        for b in trimmed_candidates(spec, t):
            assert np.floor(eps * t) <= b <= np.floor((1 - eps) * t)
            assert 1 <= b <= t - 1
