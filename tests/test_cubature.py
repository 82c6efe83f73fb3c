import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stppfit import (
    CubatureScheme,
    CubatureWarning,
    GridResolution,
    MarkedPointPattern,
    PointPattern,
    ReplicatedCubatureScheme,
    SpaceTimePoint,
    Window,
    approximate_integral,
    build_replicated_scheme,
    build_scheme,
    ground_pattern,
    replicated_responses,
    responses,
)
from stppfit.cubature import WEIGHT_SUM_RTOL, cell_axes, cell_centers, cell_indices

UNIT = Window.unit_cube()


def reference_cell_id(window, res, p):
    """Independent binning: plain floor arithmetic, boundary up, clamped top."""
    ids = []
    for (lo, hi), n, v in zip(window.ranges, res.per_axis, p):
        i = math.floor((v - lo) * n / (hi - lo))
        ids.append(min(max(i, 0), n - 1))
    return ids[0] + res.nx * (ids[1] + res.ny * ids[2])


def reference_weights(window, res, points):
    """Hand version of the weight rule: cell volume over shared-cell count."""
    everyone = list(points) + cell_centers(window, res).tolist()
    counts = {}
    for p in everyone:
        counts[reference_cell_id(window, res, p)] = counts.get(reference_cell_id(window, res, p), 0) + 1
    nu = window.volume() / res.n_cells
    return [nu / counts[reference_cell_id(window, res, p)] for p in everyone]


class TestGridResolution:
    def test_valid(self):
        res = GridResolution(2, 3, 4)
        assert res.n_cells == 24
        assert res.cell_volume(UNIT) == pytest.approx(1 / 24)

    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, -2, 1), (1, 1, 1.5)])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            GridResolution(*bad)


class TestDummyGrid:
    """``cell_centers``: the dummy points, one per cell in cell-id order."""

    def test_single_cell_center(self):
        assert cell_centers(UNIT, GridResolution(1, 1, 1)).tolist() == [[0.5, 0.5, 0.5]]

    def test_two_cells_along_x(self):
        pts = cell_centers(UNIT, GridResolution(2, 1, 1))
        assert pts.tolist() == [[0.25, 0.5, 0.5], [0.75, 0.5, 0.5]]

    def test_box_of_side_two(self):
        pts = cell_centers(Window.from_bounds(0, 2, 0, 2, 0, 2), GridResolution(2, 2, 2))
        assert pts.shape == (8, 3)
        assert np.isin(pts, (0.5, 1.5)).all()

    def test_row_major_x_fastest_order(self):
        pts = cell_centers(UNIT, GridResolution(2, 2, 2))
        assert pts[:, 0].tolist() == [0.25, 0.75] * 4
        assert pts[:4, 2].tolist() == [0.25] * 4


class TestCubeIndex:
    """``cell_indices``: the cell id of each point."""

    def test_first_octant(self):
        assert cell_indices(UNIT, GridResolution(2, 2, 2), [0.1], [0.1], [0.1]).tolist() == [0]

    def test_upper_corner_clamped_to_last_cell(self):
        assert cell_indices(UNIT, GridResolution(2, 2, 2), [1.0], [1.0], [1.0]).tolist() == [7]

    def test_interior_boundary_goes_up(self):
        assert cell_indices(UNIT, GridResolution(2, 2, 2), [0.5], [0.1], [0.1]).tolist() == [1]

    def test_outside_names_coordinate(self):
        with pytest.raises(ValueError, match="coordinate t"):
            cell_indices(UNIT, GridResolution(2, 2, 2), [0.5], [0.5], [-0.1])

    @pytest.mark.parametrize("axis", "xyt")
    def test_nan_is_outside_the_window(self, axis):
        coords = {a: [0.5, float("nan") if a == axis else 0.5] for a in "xyt"}
        with pytest.raises(ValueError, match=re.escape(f"coordinate {axis}=nan outside window range (0.0, 1.0)")):
            cell_indices(UNIT, GridResolution(4, 4, 4), coords["x"], coords["y"], coords["t"])

    def test_matches_reference_on_random_points(self):
        rng = np.random.default_rng(123)
        window = Window.from_bounds(-1, 3, 0, 2, 5, 9)
        res = GridResolution(7, 3, 5)
        lo, hi = np.array(window.ranges).T
        pts = lo + rng.random((200, 3)) * (hi - lo)
        want = [reference_cell_id(window, res, p) for p in pts.tolist()]
        assert cell_indices(window, res, *pts.T).tolist() == want


class TestBuildScheme:
    def test_empty_pattern_all_dummies_equal_weight(self):
        scheme = build_scheme(PointPattern(UNIT), GridResolution(2, 2, 2))
        assert scheme.n_data == 0 and scheme.n_dummy == 8
        np.testing.assert_array_equal(scheme.weights, np.full(8, 0.125))

    def test_single_data_point_shares_its_cell(self):
        pat = PointPattern(UNIT, (SpaceTimePoint(0.1, 0.1, 0.1),))
        with pytest.warns(CubatureWarning):
            scheme = build_scheme(pat, GridResolution(1, 1, 1))
        np.testing.assert_array_equal(scheme.weights, [0.5, 0.5])
        assert scheme.weights.sum() == pytest.approx(1.0, abs=0)

    def test_five_points_in_one_cell_hand_enumeration(self):
        # five data points inside the first octant of a 2x2x2 partition
        rng = np.random.default_rng(77)
        pts = tuple(SpaceTimePoint(*(0.45 * rng.random(3))) for _ in range(5))
        pat = PointPattern(UNIT, pts)
        scheme = build_scheme(pat, GridResolution(2, 2, 2))
        expected = reference_weights(UNIT, GridResolution(2, 2, 2), pts)
        np.testing.assert_allclose(scheme.weights, expected, rtol=0, atol=0)
        # crowded cell: 5 data + 1 dummy, each nu / 6
        crowded = [w for w in scheme.weights if w != 0.125]
        assert crowded == [0.125 / 6] * 6
        assert abs(scheme.weights.sum() - 1.0) < 1e-12

    def test_data_points_come_first(self):
        pat = PointPattern(UNIT, (SpaceTimePoint(0.9, 0.9, 0.9),))
        scheme = build_scheme(pat, GridResolution(2, 2, 2))
        np.testing.assert_array_equal(scheme.is_data, [1] + [0] * 8)
        np.testing.assert_array_equal(scheme.coords[0], [0.9, 0.9, 0.9])

    def test_warns_when_dummies_do_not_outnumber_data(self):
        rng = np.random.default_rng(4)
        pat = PointPattern.from_arrays(UNIT, *rng.random((3, 9)))
        with pytest.warns(CubatureWarning, match="dummy"):
            build_scheme(pat, GridResolution(2, 2, 2))

    def test_warns_on_duplicate_points(self):
        p = SpaceTimePoint(0.3, 0.3, 0.3)
        with pytest.warns(CubatureWarning, match="coincident"):
            build_scheme(PointPattern(UNIT, (p, p)), GridResolution(3, 3, 3))

    def test_weights_match_reference_on_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            window = Window.from_bounds(0, 1 + rng.random(), -rng.random(), 1, 2, 3 + rng.random())
            res = GridResolution(*rng.integers(1, 6, size=3))
            n = int(rng.integers(0, 30))
            pts = tuple(
                SpaceTimePoint(*(lo + rng.random() * (hi - lo) for lo, hi in window.ranges))
                for _ in range(n)
            )
            pat = PointPattern(window, pts)
            if res.n_cells <= n:
                with pytest.warns(CubatureWarning):
                    scheme = build_scheme(pat, res)
            else:
                scheme = build_scheme(pat, res)
            np.testing.assert_allclose(
                scheme.weights, reference_weights(window, res, pts), rtol=1e-15
            )
            vol = window.volume()
            assert abs(scheme.weights.sum() - vol) <= 1e-10 * vol

    def test_determinism_byte_identical(self):
        rng = np.random.default_rng(5)
        pat = PointPattern.from_arrays(UNIT, *rng.random((3, 40)))
        a = build_scheme(pat, GridResolution(4, 4, 4))
        b = build_scheme(pat, GridResolution(4, 4, 4))
        assert a.coords.tobytes() == b.coords.tobytes()
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.is_data.tobytes() == b.is_data.tobytes()

    def test_partition_counts_cover_all_points(self):
        rng = np.random.default_rng(6)
        pat = PointPattern.from_arrays(UNIT, *rng.random((3, 25)))
        res = GridResolution(3, 3, 3)
        scheme = build_scheme(pat, res)
        ids = cell_indices(UNIT, res, *scheme.coords.T)
        assert len(ids) == scheme.size
        assert ((0 <= ids) & (ids < res.n_cells)).all()


class TestSchemeInvariants:
    def test_weight_sum_violation_rejected(self):
        coords = np.array([[0.5, 0.5, 0.5]])
        with pytest.raises(ValueError, match="window volume"):
            CubatureScheme(UNIT, GridResolution(1, 1, 1), coords, [0.5], 0)

    def test_nonpositive_weight_rejected(self):
        coords = np.array([[0.25, 0.5, 0.5], [0.75, 0.5, 0.5]])
        with pytest.raises(ValueError, match="positive"):
            CubatureScheme(UNIT, GridResolution(2, 1, 1), coords, [1.0, 0.0], 0)

    def test_indicator_count_must_match_n_data(self):
        coords = np.array([[0.25, 0.5, 0.5], [0.75, 0.5, 0.5]])
        with pytest.raises(ValueError, match="n_data"):
            CubatureScheme(UNIT, GridResolution(2, 1, 1), coords, [0.5, 0.5], 3)

    def test_coords_and_weights_must_have_equal_lengths(self):
        coords = np.array([[0.25, 0.5, 0.5], [0.75, 0.5, 0.5]])
        with pytest.raises(ValueError, match="coords has 2 rows but weights has 1"):
            CubatureScheme(UNIT, GridResolution(1, 1, 1), coords, [1.0], 0)

    def test_responses_times_weights_recover_indicators(self):
        rng = np.random.default_rng(8)
        pat = PointPattern.from_arrays(UNIT, *rng.random((3, 30)))
        scheme = build_scheme(pat, GridResolution(4, 4, 4))
        y = responses(scheme)
        np.testing.assert_allclose(y * scheme.weights, scheme.is_data, atol=1e-12)


class TestResponses:
    def test_dummy_gives_zero(self):
        scheme = build_scheme(PointPattern(UNIT), GridResolution(2, 2, 2))
        np.testing.assert_array_equal(responses(scheme), np.zeros(8))

    def test_data_point_inverse_weight(self):
        pat = PointPattern(UNIT, (SpaceTimePoint(0.1, 0.1, 0.1),))
        with pytest.warns(CubatureWarning):
            scheme = build_scheme(pat, GridResolution(1, 1, 1))
        assert responses(scheme)[0] == 2.0

    def test_crowded_cell_response(self):
        rng = np.random.default_rng(77)
        pts = tuple(SpaceTimePoint(*(0.45 * rng.random(3))) for _ in range(5))
        scheme = build_scheme(PointPattern(UNIT, pts), GridResolution(2, 2, 2))
        # weight nu/6 = 0.125/6, response 6/0.125 = 48
        np.testing.assert_allclose(responses(scheme)[:5], np.full(5, 48.0))


class TestApproximateIntegral:
    def test_constant_integrates_to_volume_exactly(self):
        window = Window.from_bounds(0, 2, 0, 3, 0, 5)
        scheme = build_scheme(PointPattern(window), GridResolution(3, 2, 4))
        got = approximate_integral(scheme, lambda x, y, t: np.full_like(x, 7.0))
        assert got == pytest.approx(7.0 * 30.0, rel=1e-12)

    def test_exponential_against_analytic_value(self):
        # integral of exp(2 + x) over the unit cube is e^2 (e - 1)
        true = math.exp(2.0) * (math.e - 1.0)
        scheme = build_scheme(PointPattern(UNIT), GridResolution(20, 20, 20))
        got = approximate_integral(scheme, lambda x, y, t: np.exp(2.0 + x))
        assert abs(got - true) / true < 0.005

    def test_single_cell_indicator_gives_cell_volume(self):
        res = GridResolution(2, 2, 2)
        scheme = build_scheme(PointPattern(UNIT), res)

        def indicator(x, y, t):
            return ((x < 0.5) & (y < 0.5) & (t < 0.5)).astype(float)

        assert approximate_integral(scheme, indicator) == pytest.approx(0.125, rel=1e-12)

    def test_error_ladder_non_increasing(self):
        a, b, c, d = 2.0, 1.0, 0.5, -0.3
        true = (
            math.exp(a)
            * ((math.exp(b) - 1) / b)
            * ((math.exp(c) - 1) / c)
            * ((math.exp(d) - 1) / d)
        )
        errors = []
        for r in (5, 10, 20, 40):
            scheme = build_scheme(PointPattern(UNIT), GridResolution(r, r, r))
            got = approximate_integral(scheme, lambda x, y, t: np.exp(a + b * x + c * y + d * t))
            errors.append(abs(got - true))
        for e1, e2 in zip(errors, errors[1:]):
            assert e2 <= e1 + 1e-12

    def test_nonfinite_integrand_names_point(self):
        scheme = build_scheme(PointPattern(UNIT), GridResolution(2, 1, 1))

        def bad(x, y, t):
            return np.where(x > 0.5, np.inf, 1.0)

        with pytest.raises(ValueError, match="0.75"):
            approximate_integral(scheme, bad)


def marked_pattern(n_a=3, n_b=2, seed=31):
    rng = np.random.default_rng(seed)
    pts = [(SpaceTimePoint(*rng.random(3)), "A") for _ in range(n_a)]
    pts += [(SpaceTimePoint(*rng.random(3)), "B") for _ in range(n_b)]
    return MarkedPointPattern.from_labeled(UNIT, pts)


class TestReplicatedScheme:
    def test_single_level_collapses_to_plain_scheme(self):
        rng = np.random.default_rng(13)
        pts = [(SpaceTimePoint(*rng.random(3)), "only") for _ in range(4)]
        pat = MarkedPointPattern.from_labeled(UNIT, pts)
        rep = build_replicated_scheme(pat, GridResolution(3, 3, 3))
        from stppfit import ground_pattern

        plain = build_scheme(ground_pattern(pat), GridResolution(3, 3, 3))
        np.testing.assert_array_equal(rep.weights_by_level[0], plain.weights)
        np.testing.assert_array_equal(rep.is_data_by_level[0], plain.is_data)
        np.testing.assert_array_equal(rep.coords, plain.coords)

    def test_indicators_single_a_point(self):
        pat = MarkedPointPattern.from_labeled(
            UNIT,
            [(SpaceTimePoint(0.3, 0.3, 0.3), "A"), (SpaceTimePoint(0.8, 0.8, 0.8), "B")],
        )
        rep = build_replicated_scheme(pat, GridResolution(2, 2, 2))
        a_row = rep.is_data_by_level[0]
        b_row = rep.is_data_by_level[1]
        assert a_row[0] == 1 and b_row[0] == 0  # the A data location
        assert a_row[1] == 0 and b_row[1] == 1  # the B data location
        assert a_row[2:].sum() == 0 and b_row[2:].sum() == 0

    def test_per_level_weight_sums_and_hand_rule(self):
        pat = marked_pattern(3, 2)
        res = GridResolution(2, 2, 2)
        rep = build_replicated_scheme(pat, res)
        locations = [p for p, _ in pat.points]
        expected = reference_weights(UNIT, res, locations)
        for row in rep.weights_by_level:
            assert abs(row.sum() - 1.0) <= 1e-10
            np.testing.assert_allclose(row, expected, rtol=1e-15)

    def test_levels_share_locations(self):
        pat = marked_pattern(4, 6)
        rep = build_replicated_scheme(pat, GridResolution(3, 3, 3))
        assert rep.coords.shape == (10 + 27, 3)
        assert rep.n_data == 10 and rep.n_dummy == 27
        assert np.bincount(rep.marks).tolist() == [4, 6]

    @pytest.mark.parametrize(
        "marks, message", [([0, 1, 0], "need 2 integer mark codes"), ([0, 2], "unknown mark code 2")]
    )
    def test_bad_mark_codes_rejected(self, marks, message):
        pat = marked_pattern(1, 1)
        base = build_scheme(ground_pattern(pat), GridResolution(2, 2, 2))
        with pytest.raises(ValueError, match=message):
            ReplicatedCubatureScheme(**vars(base), levels=pat.levels, marks=marks)

    def test_replicated_responses(self):
        pat = marked_pattern(2, 3)
        rep = build_replicated_scheme(pat, GridResolution(2, 2, 2))
        y = replicated_responses(rep)
        np.testing.assert_allclose(
            y * rep.weights_by_level, rep.is_data_by_level, atol=1e-12
        )


class TestImmutability:
    def test_scheme_arrays_are_read_only(self):
        scheme = build_scheme(PointPattern(UNIT), GridResolution(2, 2, 2))
        for arr in (scheme.coords, scheme.weights, scheme.is_data):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_replicated_arrays_are_read_only(self):
        pat = marked_pattern(2, 2)
        rep = build_replicated_scheme(pat, GridResolution(2, 2, 2))
        for arr in (rep.coords, rep.weights_by_level, rep.is_data_by_level):
            with pytest.raises(ValueError):
                arr.flat[0] = 0

    def test_frozen_dataclasses(self):
        scheme = build_scheme(PointPattern(UNIT), GridResolution(2, 2, 2))
        with pytest.raises(AttributeError):
            scheme.n_data = 5
        with pytest.raises(AttributeError):
            GridResolution(1, 1, 1).nx = 2


def quiet_scheme(window, res, xyt):
    """Scheme from columnar input, with the few-dummies warning silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CubatureWarning)
        return build_scheme(PointPattern.from_arrays(window, *np.reshape(xyt, (-1, 3)).T), res)


@st.composite
def offset_windows(draw):
    lo = [draw(st.floats(-1000.0, 3000.0)) for _ in range(3)]
    length = [draw(st.floats(0.01, 1000.0)) for _ in range(3)]
    return Window(*((a, a + n) for a, n in zip(lo, length)))


@st.composite
def exact_grids(draw):
    """Offset windows whose interior cell boundaries lo + j * width are exact doubles."""
    ranges, per_axis = [], []
    for _ in range(3):
        n = draw(st.integers(1, 8))
        width = draw(st.sampled_from([0.125, 0.5, 1.0, 2.5, 5.0, 125.0]))
        lo = draw(st.sampled_from([0.0, 2000.0]) | st.integers(-1000, 3000).map(lambda v: v / 4))
        ranges.append((lo, lo + n * width))
        per_axis.append(n)
    return Window(*ranges), GridResolution(*per_axis)


def assert_bins_into(window, res, p, cells):
    """``p`` lands in cell ``cells`` (per-axis indices) for cell_indices and for the scheme."""
    want = cells[0] + res.nx * (cells[1] + res.ny * cells[2])
    assert cell_indices(window, res, *np.reshape(p, (3, 1))).tolist() == [want]
    scheme = quiet_scheme(window, res, p)
    nu = res.cell_volume(window)
    # the data point and the dummy of its cell share that cell's volume
    assert scheme.weights[0] == scheme.weights[1 + want] == nu / 2


class TestSchemeProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        offset_windows(),
        st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
        st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)), max_size=30),
    )
    def test_weights_sum_to_window_volume(self, window, per_axis, fractions):
        lo, hi = np.array(window.ranges).T
        xyt = np.clip(lo + np.reshape(fractions, (-1, 3)) * (hi - lo), lo, hi)
        scheme = quiet_scheme(window, GridResolution(*per_axis), xyt)
        vol = window.volume()
        assert abs(scheme.weights.sum() - vol) <= WEIGHT_SUM_RTOL * vol

    @settings(max_examples=150, deadline=None)
    @given(exact_grids(), st.integers(0, 2), st.data())
    def test_boundary_goes_up_and_top_face_is_last_cell(self, grid, axis, data):
        window, res = grid
        n = res.per_axis[axis]
        cells = [data.draw(st.integers(0, m - 1)) for m in res.per_axis]
        p = [float(centers[c]) for centers, c in zip(cell_axes(window, res), cells)]
        j = data.draw(st.integers(1, n))  # j == n is the upper face
        lo, hi = window.ranges[axis]
        p[axis] = lo + j * (hi - lo) / n
        cells[axis] = min(j, n - 1)
        assert_bins_into(window, res, p, cells)

    def test_calendar_window_boundaries(self):
        window = Window((0.0, 1000.0), (0.0, 1000.0), (2000.0, 2020.0))
        res = GridResolution(8, 5, 4)
        centers = cell_axes(window, res)
        for axis, n in enumerate(res.per_axis):
            lo, hi = window.ranges[axis]
            for j in range(1, n + 1):
                cells = [3, 2, 1]
                p = [float(c[i]) for c, i in zip(centers, cells)]
                p[axis] = lo + j * (hi - lo) / n
                cells[axis] = min(j, n - 1)
                assert_bins_into(window, res, p, cells)


SUBSTEPS = 8  # lattice points per cell width along each axis


@st.composite
def lattice_patterns(draw):
    """An exact grid and up to 40 points ``lo + j * width / SUBSTEPS``: each coordinate an exact
    double, on an interior cell face or the upper face when ``j`` is a multiple of SUBSTEPS."""
    window, res = draw(exact_grids())
    per_axis = [st.integers(0, SUBSTEPS * n) | st.integers(1, n).map(lambda i: SUBSTEPS * i) for n in res.per_axis]
    return window, res, draw(st.lists(st.tuples(*per_axis), max_size=40))


class TestBuildSchemeProperties:
    @settings(max_examples=150, deadline=None)
    @given(lattice_patterns())
    def test_volume_centres_shared_weights_and_boundaries_up(self, drawn):
        window, res, lattice = drawn
        widths = [(hi - lo) / n for (lo, hi), n in zip(window.ranges, res.per_axis)]
        xyt = [[lo + j * w / SUBSTEPS for (lo, _), j, w in zip(window.ranges, js, widths)] for js in lattice]
        scheme = quiet_scheme(window, res, xyt)
        n, nu, vol = len(xyt), res.cell_volume(window), window.volume()
        assert abs(float(scheme.weights.sum()) - vol) <= 1e-10 * vol
        # dummy k sits at the centre of cell k (x fastest, then y, then t)
        nx, ny, _ = res.per_axis
        for k in range(res.n_cells):
            cell = (k % nx, k // nx % ny, k // (nx * ny))
            want = [lo + (i + 0.5) * w for (lo, _), i, w in zip(window.ranges, cell, widths)]
            assert scheme.coords[n + k].tolist() == want
        # a point on an interior face belongs to the higher cell; the upper face to the last
        cells = [
            sum(min(j // SUBSTEPS, m - 1) * stride for j, m, stride in zip(js, res.per_axis, (1, nx, nx * ny)))
            for js in lattice
        ]
        shared = Counter(cells)
        for i, cell in enumerate(cells):
            # the point and the dummy of its cell split nu over the data points there plus that dummy
            assert scheme.weights[i] == scheme.weights[n + cell] == nu / (shared[cell] + 1)


@st.composite
def fine_grids(draw):
    """Windows at offsets up to calendar scale, some axes only 1-64 ulps wide, with 1-64 cells per axis."""
    ranges = []
    for _ in range(3):
        lo = draw(st.floats(-2e9, 2e9) | st.sampled_from([0.0, 2000.0, 609755717.1857994]))
        if draw(st.booleans()):
            ranges.append((lo, lo + draw(st.integers(1, 64)) * float(np.spacing(max(abs(lo), 1.0)))))
        else:
            ranges.append((lo, lo + draw(st.floats(0.01, 1000.0))))
    return Window(*ranges), GridResolution(*(draw(st.integers(1, 64)) for _ in range(3)))


class TestGridTooFine:
    def test_ulp_narrow_cells_raise_naming_axis_width_and_range(self):
        lo, hi = 609755717.1857994, 609755717.1858023
        window, res = Window((0.0, 1.0), (lo, hi), (2000.0, 2020.0)), GridResolution(2, 42, 3)
        message = f"at 42 cells along y, a cell is {(hi - lo) / 42!r} wide, too narrow for the range ({lo}, {hi})"
        with pytest.raises(ValueError, match=re.escape(message)):
            quiet_scheme(window, res, [0.5, (lo + hi) / 2, 2010.0])

    @settings(max_examples=100, deadline=None)
    @given(fine_grids(), st.lists(st.tuples(*3 * [st.floats(0, 1)]), max_size=10))
    def test_raises_exactly_when_a_centre_leaves_its_cell(self, grid, fractions):
        window, res = grid
        lo, hi = np.array(window.ranges).T
        xyt = np.clip(lo + np.reshape(fractions, (-1, 3)) * (hi - lo), lo, hi)
        if not (cell_indices(window, res, *cell_centers(window, res).T) == np.arange(res.n_cells)).all():
            with pytest.raises(ValueError, match="grid too fine for its window"):
                quiet_scheme(window, res, xyt)
            return
        scheme = quiet_scheme(window, res, xyt)
        ids = cell_indices(window, res, *scheme.coords.T)
        want = res.cell_volume(window) / np.bincount(ids, minlength=res.n_cells)[ids]
        assert scheme.weights.tobytes() == want.tobytes()


@st.composite
def calendar_windows(draw):
    """Metre-sized spatial sides and a span of years, as in projected, dated data."""
    x0, y0 = (draw(st.integers(0, 500_000)) for _ in range(2))
    year = draw(st.integers(1900, 2100))
    sides = [draw(st.sampled_from([100.0, 1000.0, 25_000.0])) for _ in range(2)]
    return Window((x0, x0 + sides[0]), (y0, y0 + sides[1]), (year, year + draw(st.integers(1, 30))))


class TestDerivedIndicator:
    @settings(max_examples=100, deadline=None)
    @given(offset_windows() | calendar_windows(), st.tuples(*3 * [st.integers(1, 5)]),
           st.lists(st.tuples(*3 * [st.floats(0, 1)]), max_size=30), st.none() | st.integers(1, 3), st.data())
    def test_indicator_marks_the_first_n_data_rows(self, window, per_axis, fractions, m, data):
        lo, hi = np.array(window.ranges).T
        xyt = np.clip(lo + np.reshape(fractions, (-1, 3)) * (hi - lo), lo, hi)
        res = GridResolution(*per_axis)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CubatureWarning)
            if m is None:
                scheme = build_scheme(PointPattern(window, xyt), res)
            else:
                codes = data.draw(st.lists(st.integers(0, m - 1), min_size=len(xyt), max_size=len(xyt)))
                levels = tuple(f"L{i}" for i in range(m))
                scheme = build_replicated_scheme(MarkedPointPattern(window, xyt, np.array(codes, dtype=int), levels), res)
        n = len(xyt)
        assert (scheme.n_data, scheme.n_dummy, scheme.size) == (n, res.n_cells, n + res.n_cells)
        e = scheme.is_data
        assert e.dtype == np.uint8 and e.tolist() == [1] * n + [0] * res.n_cells
        assert not e.flags.writeable
        with pytest.raises(ValueError):
            e[0] = 1 - e[0]
        explicit = np.array([1] * n + [0] * res.n_cells, dtype=np.uint8)
        assert responses(scheme).tobytes() == (explicit / scheme.weights).tobytes()
        if m is not None:
            assert scheme.is_data_by_level.sum(axis=0).tolist() == e.tolist()

    def test_derived_facts_cannot_be_assigned(self):
        scheme = build_scheme(PointPattern(UNIT, [(0.5, 0.5, 0.5)]), GridResolution(2, 2, 2))
        for name in ("is_data", "n_dummy", "size"):
            with pytest.raises(AttributeError):
                setattr(scheme, name, None)


@st.composite
def marked_patterns(draw):
    """Marked patterns with 1-4 levels (some possibly empty) on offset windows."""
    window = draw(offset_windows())
    m = draw(st.integers(1, 4))
    fractions = draw(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)), max_size=30))
    codes = draw(st.lists(st.integers(0, m - 1), min_size=len(fractions), max_size=len(fractions)))
    lo, hi = np.array(window.ranges).T
    xyt = np.clip(lo + np.reshape(fractions, (-1, 3)) * (hi - lo), lo, hi)
    levels = tuple(f"L{i}" for i in range(m))
    return MarkedPointPattern(window, xyt, np.array(codes, dtype=np.intp), levels)


class TestReplicatedSchemeProperties:
    @settings(max_examples=100, deadline=None)
    @given(marked_patterns(), st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)))
    def test_marked_pattern_bins_as_its_ground_pattern(self, pattern, per_axis):
        res = GridResolution(*per_axis)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CubatureWarning)
            marked = build_scheme(pattern, res)
            ground = build_scheme(ground_pattern(pattern), res)
        assert marked.coords.tobytes() == ground.coords.tobytes()
        assert marked.weights.tobytes() == ground.weights.tobytes()
        assert marked.n_data == ground.n_data == pattern.n

    @settings(max_examples=100, deadline=None)
    @given(marked_patterns(), st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)))
    def test_replicated_scheme_is_ground_scheme_plus_marks(self, pattern, per_axis):
        res = GridResolution(*per_axis)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CubatureWarning)
            rep = build_replicated_scheme(pattern, res)
            ground = build_scheme(ground_pattern(pattern), res)
        assert rep.weights_by_level.shape == (len(pattern.levels), ground.size)
        for row in rep.weights_by_level:
            assert row.tobytes() == ground.weights.tobytes()
        e = rep.is_data_by_level
        col_sums = e.sum(axis=0)
        assert np.all(col_sums[: pattern.n] == 1) and np.all(col_sums[pattern.n :] == 0)
        assert np.all(e[pattern.marks, np.arange(pattern.n)] == 1)
        # (1 / w) * w is 1 to within two roundings
        y = replicated_responses(rep)
        np.testing.assert_allclose(y * rep.weights_by_level, e, rtol=0, atol=2.0**-51)
        for arr in (rep.weights_by_level, e, rep.marks):
            assert not arr.flags.writeable
