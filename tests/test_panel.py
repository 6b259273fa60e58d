"""Panel construction, break-interacted regressors and candidate sets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panelbreak import (
    BreakSpec,
    PanelData,
    build_panel,
    estimation_candidates,
    z_regressors,
)
from panelbreak import testing_candidates as trimmed_candidates
from panelbreak.exceptions import (
    DuplicateObservation,
    InputError,
    NonFiniteValue,
    RaggedRow,
    UnbalancedPanel,
)
from panelbreak.panel import post_break_mask

from conftest import reference_build_panel


def make_rows(n, t, k, rng, unit_fmt="u{:03d}"):
    rows = []
    for i in range(n):
        for s in range(t):
            rows.append(
                (unit_fmt.format(i), s + 1, rng.standard_normal(), *rng.standard_normal(k))
            )
    return rows


class TestBuildPanel:
    def test_shapes_and_labels(self, rng):
        panel = build_panel(make_rows(3, 4, 2, rng))
        assert panel.n_units == 3
        assert panel.n_periods == 4
        assert panel.n_regressors == 2
        assert panel.time_labels == (1, 2, 3, 4)
        assert panel.d is None

    def test_row_order_irrelevant(self, rng):
        rows = make_rows(4, 5, 2, rng)
        a = build_panel(rows)
        shuffled = list(rows)
        np.random.default_rng(1).shuffle(shuffled)
        b = build_panel(shuffled)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.x, b.x)
        assert a.unit_labels == b.unit_labels

    def test_numeric_time_sorted_numerically(self, rng):
        rows = []
        for u in ("a", "b"):
            for time in (10, 2, 1):
                rows.append((u, time, 1.0, 1.0))
        panel = build_panel(rows)
        assert panel.time_labels == (1, 2, 10)

    def test_missing_cell_raises(self, rng):
        rows = make_rows(3, 4, 1, rng)
        with pytest.raises(UnbalancedPanel):
            build_panel(rows[:-1])

    def test_duplicate_raises(self, rng):
        rows = make_rows(2, 3, 1, rng)
        with pytest.raises(DuplicateObservation):
            build_panel(rows + [rows[0]])

    def test_nonfinite_raises(self, rng):
        rows = make_rows(2, 3, 1, rng)
        rows[0] = (rows[0][0], rows[0][1], float("nan"), 1.0)
        with pytest.raises(NonFiniteValue):
            build_panel(rows)

    def test_ragged_raises(self, rng):
        rows = make_rows(2, 3, 2, rng)
        rows[3] = rows[3][:-1]
        with pytest.raises(RaggedRow):
            build_panel(rows)

    def test_intercept_column(self, rng):
        panel = build_panel(make_rows(2, 3, 1, rng), intercept=True)
        assert np.array_equal(panel.d, np.ones((3, 1)))

    def test_common_rows_must_cover_times(self, rng):
        rows = make_rows(2, 3, 1, rng)
        with pytest.raises(UnbalancedPanel):
            build_panel(rows, common_rows=[(1, 0.5), (2, 0.7)])

    def test_common_rows_attach(self, rng):
        rows = make_rows(2, 3, 1, rng)
        panel = build_panel(rows, common_rows=[(1, 0.5), (2, 0.7), (3, 0.9)])
        assert panel.d.shape == (3, 1)
        assert panel.d[2, 0] == 0.9

    def test_paper_sized_panel(self, rng):
        # The sort of dimensions a weekly micro panel has.
        panel = build_panel(make_rows(61, 38, 3, rng))
        assert (panel.n_units, panel.n_periods) == (61, 38)


def outcome(build, rows, common_rows=None, intercept=False):
    """What a caller can observe: the arrays and labels, or the error."""
    try:
        panel = build(rows, common_rows=common_rows, intercept=intercept)
    except Exception as err:  # the error class and text are the outcome
        return type(err).__name__, str(err)
    d = None if panel.d is None else (panel.d.shape, panel.d.tobytes())
    labels = repr((panel.unit_labels, panel.time_labels))
    return panel.y.shape, panel.y.tobytes(), panel.x.shape, panel.x.tobytes(), d, labels


UNIT_LABELS = st.one_of(st.integers(0, 20), st.text("abc7", min_size=1, max_size=2))
TIME_LABELS = st.one_of(
    st.integers(0, 12),
    st.sampled_from([0.5, 1.5, 2.25, -1.0, float("inf")]),
    st.text("xy3", min_size=1, max_size=2),
)
VALUES = st.floats(-1e3, 1e3, allow_nan=False)
DEFECTS = ("duplicate", "missing", "ragged", "nonfinite", "unreadable")


@st.composite
def long_rows(draw):
    """Shuffled long-format rows with up to three injected defects, and optional common rows."""
    units = draw(st.lists(UNIT_LABELS, min_size=2, max_size=4, unique=True))
    times = draw(st.lists(TIME_LABELS, min_size=2, max_size=4, unique=True))
    k = draw(st.integers(1, 2))
    rows = []
    for unit in units:
        for time in times:
            if isinstance(time, int) and draw(st.booleans()):
                time = float(time)  # an equal label spelled differently
            rows.append((unit, time, *draw(st.lists(VALUES, min_size=k + 1, max_size=k + 1))))
    rows = draw(st.permutations(rows))
    for kind in draw(st.lists(st.sampled_from(DEFECTS), max_size=3)):
        at = draw(st.integers(0, len(rows) - 1))  # at least four rows, at most three dropped
        if kind == "duplicate":
            copy = rows[draw(st.integers(0, len(rows) - 1))]
            rows.insert(at, copy[:2] + tuple(draw(st.lists(VALUES, min_size=k + 1, max_size=k + 1))))
        elif kind == "missing":
            del rows[at]
        elif kind == "ragged":
            rows[at] = rows[at][:-1] if draw(st.booleans()) else rows[at] + (0.0,)
        else:
            col = draw(st.integers(2, max(2, len(rows[at]) - 1)))  # two "ragged" cuts can leave 2 fields
            bad = draw(st.sampled_from([float("nan"), float("inf"), -float("inf")]))
            bad = "oops" if kind == "unreadable" else bad
            rows[at] = rows[at][:col] + (bad,) + rows[at][col + 1 :]
    common = None
    if draw(st.booleans()):
        n_common = draw(st.integers(0, 2))
        common = [(time, *draw(st.lists(VALUES, min_size=n_common, max_size=n_common))) for time in times]
        if draw(st.booleans()):
            common.append((draw(TIME_LABELS), 0.0))  # duplicate, unknown or ragged time
        common = draw(st.permutations(common))
    return rows, common, draw(st.booleans())


class TestBuildPanelOracle:
    """``build_panel`` against the row-at-a-time reference in conftest."""

    @given(case=long_rows())
    @settings(max_examples=600, deadline=None)
    def test_same_outcome_as_reference(self, case):
        rows, common, intercept = case
        assert outcome(build_panel, rows, common, intercept) == outcome(
            reference_build_panel, rows, common, intercept
        )

    @pytest.mark.parametrize(
        "first, second, error",
        [
            ("nonfinite", "duplicate", NonFiniteValue),
            ("duplicate", "nonfinite", DuplicateObservation),
            ("nonfinite", "ragged", NonFiniteValue),
            ("ragged", "duplicate", RaggedRow),
            ("duplicate", "ragged", DuplicateObservation),
            ("missing", "nonfinite", NonFiniteValue),
        ],
    )
    def test_first_defect_in_row_order_wins(self, rng, first, second, error):
        rows = make_rows(3, 4, 2, rng)

        def inject(kind, at):
            if kind == "nonfinite":
                rows[at] = rows[at][:3] + (float("nan"),) + rows[at][4:]
            elif kind == "duplicate":
                rows[at] = rows[0][:2] + rows[at][2:]
            elif kind == "ragged":
                rows[at] = rows[at][:-1]
            else:  # the row moves to a new unit, leaving its cell missing
                rows[at] = ("no such unit",) + rows[at][1:]

        inject(first, 3)
        inject(second, 7)
        with pytest.raises(error) as got:
            build_panel(rows)
        with pytest.raises(error) as want:
            reference_build_panel(rows)
        assert str(got.value) == str(want.value)

    def test_duplicate_beats_nonfinite_in_one_row(self, rng):
        rows = make_rows(2, 3, 1, rng)
        rows.append(rows[1][:2] + (float("inf"), 1.0))
        with pytest.raises(DuplicateObservation, match=r"duplicate observation for \('u000', 2\)"):
            build_panel(rows)

    def test_first_missing_cell_in_sorted_order(self, rng):
        rows = make_rows(3, 4, 1, rng)
        rows = [row for row in rows if row[:2] not in {("u002", 1), ("u001", 3)}]
        with pytest.raises(UnbalancedPanel, match=r"missing observation for \('u001', 3\)"):
            build_panel(rows)

    def test_unreadable_value_raises_in_row_order(self, rng):
        rows = make_rows(2, 3, 1, rng)
        rows[4] = rows[4][:2] + ("oops", 1.0)
        message = r"unreadable value at \('u001', 2\): could not convert string to float: 'oops'"
        for build in (build_panel, reference_build_panel):
            with pytest.raises(InputError, match=message) as err:
                build(rows)
            assert type(err.value) is InputError
        rows[1] = rows[1][:2] + (float("nan"), 1.0)
        with pytest.raises(NonFiniteValue):
            build_panel(rows)

    def test_unreadable_common_value_names_its_time(self, rng):
        rows = make_rows(2, 3, 1, rng)
        common = [(1, 0.5), (2, "oops"), (3, float("nan"))]
        message = r"unreadable common regressor at time 2: could not convert string to float: 'oops'"
        for build in (build_panel, reference_build_panel):
            with pytest.raises(InputError, match=message) as err:
                build(rows, common_rows=common)
            assert type(err.value) is InputError

    def test_common_rows_with_unknown_time(self, rng):
        rows = make_rows(2, 3, 1, rng)
        common = [(1, 0.5), (2, 0.7), (3, 0.9), (4, 1.1)]
        with pytest.raises(UnbalancedPanel, match=r"cover unknown times \[4\]"):
            build_panel(rows, common_rows=common)


class TestPanelData:
    def test_too_small_raises(self):
        with pytest.raises(InputError):
            PanelData(y=np.zeros((1, 5)), x=np.zeros((1, 5, 1)))
        with pytest.raises(InputError):
            PanelData(y=np.zeros((3, 1)), x=np.zeros((3, 1, 1)))

    def test_arrays_frozen(self, rng):
        panel = build_panel(make_rows(2, 3, 1, rng))
        with pytest.raises(ValueError):
            panel.y[0, 0] = 1.0

    def test_slice_periods(self, rng):
        panel = build_panel(make_rows(3, 8, 2, rng))
        sub = panel.slice_periods(3, 6)
        assert sub.n_periods == 4
        assert np.array_equal(sub.y, panel.y[:, 2:6])
        assert sub.time_labels == panel.time_labels[2:6]

    def test_slice_bad_window(self, rng):
        panel = build_panel(make_rows(2, 4, 1, rng))
        with pytest.raises(InputError):
            panel.slice_periods(0, 3)
        with pytest.raises(InputError):
            panel.slice_periods(3, 2)


class TestBreakSpec:
    def test_from_indices_round_trip(self):
        spec = BreakSpec.from_indices(4, [1, 3])
        assert spec.n_breaking == 2
        assert np.argmax(spec.selection, axis=0).tolist() == [1, 3]

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
        panel = build_panel(make_rows(2, 4, 2, rng))
        spec = BreakSpec.from_indices(2, [0])
        z = z_regressors(panel, spec, 3)
        assert np.all(z[:, :3, :] == 0.0)
        assert np.array_equal(z[:, 3, 0], panel.x[:, 3, 0])

    def test_b_zero_keeps_everything(self, rng):
        panel = build_panel(make_rows(2, 4, 2, rng))
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
        panel = build_panel(make_rows(2, 4, 1, rng))
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
