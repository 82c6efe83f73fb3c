import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stppfit import (
    CoordinateMonomial,
    CovariateGrid,
    CovariateSample,
    ExternalCovariate,
    GridResolution,
    IdwConfig,
    Intercept,
    SpaceTimePoint,
    Window,
    evaluate_covariate,
    idw_interpolate,
    nearest_grid_value,
    smooth_to_grid,
)
from stppfit import covariates
from stppfit.cubature import cell_centers, cube_index

UNIT = Window.unit_cube()


def sample(x, y, t, value):
    return CovariateSample(SpaceTimePoint(x, y, t), value)


def random_samples(rng, window, n):
    out = []
    for _ in range(n):
        loc = SpaceTimePoint(*(lo + rng.random() * (hi - lo) for lo, hi in window.ranges))
        out.append(CovariateSample(loc, float(rng.normal())))
    return out


def oracle_idw(queries, xyz, vals, cfg):
    """Direct IDW: every (query, sample) scaled squared distance in one array."""
    scale = np.asarray(cfg.scaling)
    d2 = (((queries / scale)[:, None, :] - (xyz / scale)[None, :, :]) ** 2).sum(axis=2)
    near = d2 < 1e-24
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = d2 ** (-cfg.power / 2.0)
        out = ((w / w.sum(axis=1, keepdims=True)) * vals).sum(axis=1)
    for r in np.flatnonzero(near.any(axis=1)):
        out[r] = np.mean(vals[near[r]])
    return out


def sample_arrays(samples):
    xyz = np.array([s.location.as_tuple() for s in samples])
    return xyz, np.array([s.value for s in samples])


class TestIdwInterpolate:
    def test_single_sample_everywhere(self):
        samples = [sample(0.3, 0.9, 0.1, 7.0)]
        assert idw_interpolate(samples, SpaceTimePoint(0.9, 0.2, 0.6)) == 7.0

    def test_midpoint_symmetry(self):
        samples = [sample(0, 0, 0, 0.0), sample(1, 0, 0, 10.0)]
        for p in (0.7, 1.0, 2.0, 3.5):
            cfg = IdwConfig(power=p)
            assert idw_interpolate(samples, SpaceTimePoint(0.5, 0, 0), cfg) == pytest.approx(5.0)

    def test_coincident_query_returns_sample_value(self):
        samples = [sample(0.2, 0.4, 0.6, 3.5), sample(0.9, 0.9, 0.9, -2.0)]
        assert idw_interpolate(samples, SpaceTimePoint(0.2, 0.4, 0.6)) == 3.5

    def test_coincident_ties_average(self):
        samples = [sample(0.5, 0.5, 0.5, 1.0), sample(0.5, 0.5, 0.5, 3.0)]
        assert idw_interpolate(samples, SpaceTimePoint(0.5, 0.5, 0.5)) == 2.0

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            idw_interpolate([], SpaceTimePoint(0, 0, 0))

    def test_bounded_by_sample_range(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            samples = random_samples(rng, UNIT, int(rng.integers(1, 20)))
            q = SpaceTimePoint(*rng.random(3))
            cfg = IdwConfig(power=float(rng.uniform(0.5, 4.0)))
            got = idw_interpolate(samples, q, cfg)
            vals = [s.value for s in samples]
            assert min(vals) - 1e-12 <= got <= max(vals) + 1e-12

    def test_constant_shift_equivariance(self):
        rng = np.random.default_rng(22)
        samples = random_samples(rng, UNIT, 12)
        q = SpaceTimePoint(0.3, 0.6, 0.9)
        base = idw_interpolate(samples, q)
        c = 13.25
        shifted = [CovariateSample(s.location, s.value + c) for s in samples]
        assert idw_interpolate(shifted, q) == pytest.approx(base + c, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(23)
        samples = random_samples(rng, UNIT, 15)
        q = SpaceTimePoint(0.1, 0.8, 0.4)
        base = idw_interpolate(samples, q)
        for _ in range(5):
            perm = list(rng.permutation(len(samples)))
            got = idw_interpolate([samples[i] for i in perm], q)
            assert got == pytest.approx(base, abs=1e-12)

    def test_axis_scaling_changes_neighbourhood(self):
        # squashing the t axis makes the distant-in-t sample dominant
        samples = [sample(0.4, 0.5, 0.0, 0.0), sample(0.6, 0.5, 0.9, 10.0)]
        q = SpaceTimePoint(0.59, 0.5, 0.0)
        isotropic = idw_interpolate(samples, q, IdwConfig())
        squashed = idw_interpolate(samples, q, IdwConfig(scaling=(1.0, 1.0, 100.0)))
        assert squashed > isotropic


class TestIdwConfig:
    def test_for_window_uses_side_lengths(self):
        w = Window.from_bounds(0, 2, 0, 4, 0, 8)
        cfg = IdwConfig.for_window(w)
        assert cfg.scaling == (2.0, 4.0, 8.0)
        assert cfg.power == 2.0

    @pytest.mark.parametrize("kwargs", [{"power": 0.0}, {"power": -1.0}, {"scaling": (1, 0, 1)}])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            IdwConfig(**kwargs)


class TestSmoothToGrid:
    def test_constant_samples_give_constant_grid(self):
        samples = [sample(0.1, 0.1, 0.1, 4.5), sample(0.9, 0.8, 0.7, 4.5)]
        grid = smooth_to_grid(samples, UNIT, GridResolution(4, 4, 4))
        np.testing.assert_allclose(grid.values, 4.5)

    def test_single_sample_gives_its_value(self):
        grid = smooth_to_grid([sample(0.5, 0.5, 0.5, -3.25)], UNIT, GridResolution(3, 3, 3))
        np.testing.assert_array_equal(grid.values, np.full(27, -3.25))

    def test_antisymmetric_samples_give_antisymmetric_grid(self):
        # samples mirrored about the window center with opposite values
        samples = [sample(0.2, 0.3, 0.4, -2.0), sample(0.8, 0.7, 0.6, 2.0)]
        res = GridResolution(4, 4, 4)
        grid = smooth_to_grid(samples, UNIT, res)
        centers = cell_centers(UNIT, res)
        for cell, center in enumerate(centers):
            mirrored = SpaceTimePoint(1 - center[0], 1 - center[1], 1 - center[2])
            partner = cube_index(UNIT, res, mirrored)
            assert abs(grid.values[cell] + grid.values[partner]) < 1e-10

    def test_values_in_cell_id_order(self):
        samples = [sample(0.0, 0.5, 0.5, 0.0), sample(1.0, 0.5, 0.5, 1.0)]
        res = GridResolution(2, 1, 1)
        grid = smooth_to_grid(samples, UNIT, res)
        assert grid.values[0] < grid.values[1]

    def test_grid_matches_pointwise_idw_exactly(self):
        rng = np.random.default_rng(31)
        samples = random_samples(rng, UNIT, 9)
        res = GridResolution(3, 2, 2)
        cfg = IdwConfig.for_window(UNIT, power=1.7)
        grid = smooth_to_grid(samples, UNIT, res, cfg)
        for cell, center in enumerate(cell_centers(UNIT, res)):
            want = idw_interpolate(samples, SpaceTimePoint(*center), cfg)
            assert grid.values[cell] == want


@st.composite
def idw_problems(draw):
    """An offset window in calendar-like units, its fine grid, an IDW config and samples.

    Some samples sit exactly on cell centers (two of them may share a
    center), so the coincident-sample rule runs.
    """
    unit = st.floats(0.0, 1.0)
    lo = [draw(st.floats(-1000.0, 3000.0)) for _ in range(3)]
    length = [draw(st.floats(0.01, 1000.0)) for _ in range(3)]
    window = Window.from_bounds(*(v for a, n in zip(lo, length) for v in (a, a + n)))
    res = GridResolution(*(draw(st.integers(1, 6)) for _ in range(3)))
    scaling = tuple(n * draw(st.floats(0.01, 100.0)) for n in length)
    cfg = IdwConfig(power=draw(st.sampled_from([2.0, 1.7, 3.0])), scaling=scaling)
    centers = cell_centers(window, res)
    on_center = draw(st.lists(st.integers(0, res.n_cells - 1), max_size=4))
    scattered = draw(st.lists(st.tuples(unit, unit, unit), min_size=1, max_size=25))
    sites = [tuple(centers[c]) for c in on_center]
    sites += [tuple(a + f * n for a, f, n in zip(lo, fr, length)) for fr in scattered]
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=len(sites), max_size=len(sites)))
    return window, res, cfg, [sample(*p, v) for p, v in zip(sites, values)]


class TestIdwKernelMatchesDirectFormula:
    @settings(max_examples=80, deadline=None)
    @given(idw_problems())
    def test_smooth_to_grid_is_bit_identical(self, problem):
        window, res, cfg, samples = problem
        grid = smooth_to_grid(samples, window, res, cfg)
        want = oracle_idw(cell_centers(window, res), *sample_arrays(samples), cfg)
        np.testing.assert_array_equal(grid.values, want)

    @settings(max_examples=40, deadline=None)
    @given(idw_problems(), st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)))
    def test_idw_interpolate_is_bit_identical(self, problem, frac):
        window, _, cfg, samples = problem
        q = np.array([[lo + f * (hi - lo) for (lo, hi), f in zip(window.ranges, frac)]])
        got = idw_interpolate(samples, SpaceTimePoint(*q[0]), cfg)
        assert got == oracle_idw(q, *sample_arrays(samples), cfg)[0]

    def test_many_blocks_per_slab(self, monkeypatch):
        rng = np.random.default_rng(61)
        window = Window.from_bounds(0, 1000, 0, 1000, 2000, 2020)
        res = GridResolution(20, 15, 2)
        samples = random_samples(rng, window, 700)
        centers = cell_centers(window, res)
        for k, cell in enumerate((0, 17, 299, 431)):
            samples[k] = CovariateSample(SpaceTimePoint(*centers[cell]), float(k))
        n_samples = len(samples)
        assert covariates._BLOCK_PAIRS // n_samples * 3 < res.nx * res.ny
        cfg = IdwConfig(power=2.0, scaling=(500.0, 2000.0, 5.0))
        want = oracle_idw(centers, *sample_arrays(samples), cfg)
        np.testing.assert_array_equal(smooth_to_grid(samples, window, res, cfg).values, want)
        for block_pairs in (1, 5 * n_samples - 1, res.nx * res.ny * n_samples):
            monkeypatch.setattr(covariates, "_BLOCK_PAIRS", block_pairs)
            np.testing.assert_array_equal(smooth_to_grid(samples, window, res, cfg).values, want)


class TestNearestGridValue:
    def make_grid(self):
        res = GridResolution(2, 2, 2)
        return CovariateGrid(UNIT, res, np.arange(8.0))

    def test_cell_center_hits_its_cell(self):
        grid = self.make_grid()
        assert nearest_grid_value(grid, SpaceTimePoint(0.25, 0.25, 0.25)) == 0.0
        assert nearest_grid_value(grid, SpaceTimePoint(0.75, 0.75, 0.75)) == 7.0

    def test_upper_corner_clamps_to_last_cell(self):
        grid = self.make_grid()
        assert nearest_grid_value(grid, SpaceTimePoint(1.0, 1.0, 1.0)) == 7.0

    def test_interior_boundary_sides(self):
        grid = self.make_grid()
        below = nearest_grid_value(grid, SpaceTimePoint(0.5 - 1e-9, 0.25, 0.25))
        above = nearest_grid_value(grid, SpaceTimePoint(0.5, 0.25, 0.25))
        assert (below, above) == (0.0, 1.0)

    def test_outside_window_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            nearest_grid_value(self.make_grid(), SpaceTimePoint(1.5, 0.5, 0.5))

    def test_equals_idw_at_containing_cell_center(self):
        rng = np.random.default_rng(41)
        samples = random_samples(rng, UNIT, 7)
        res = GridResolution(3, 3, 3)
        cfg = IdwConfig.for_window(UNIT)
        grid = smooth_to_grid(samples, UNIT, res, cfg)
        for _ in range(20):
            p = SpaceTimePoint(*rng.random(3))
            cell = cube_index(UNIT, res, p)
            center = SpaceTimePoint(*cell_centers(UNIT, res)[cell])
            assert nearest_grid_value(grid, p) == idw_interpolate(samples, center, cfg)


class TestCovariateGridValidation:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="needs 8 values"):
            CovariateGrid(UNIT, GridResolution(2, 2, 2), np.ones(5))

    def test_nonfinite_rejected(self):
        vals = np.ones(8)
        vals[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            CovariateGrid(UNIT, GridResolution(2, 2, 2), vals)


class TestCovariateFunctions:
    def test_intercept_is_one(self):
        assert evaluate_covariate(Intercept(), SpaceTimePoint(0.3, 0.9, 2.0)) == 1.0

    def test_monomial_example(self):
        f = CoordinateMonomial(1, 0, 2)
        assert evaluate_covariate(f, SpaceTimePoint(2.0, 5.0, 3.0)) == 18.0

    def test_degenerate_monomial_is_intercept(self):
        f = CoordinateMonomial(0, 0, 0)
        assert f.name == "1"
        assert evaluate_covariate(f, SpaceTimePoint(9.0, 9.0, 9.0)) == 1.0

    def test_monomial_names(self):
        assert CoordinateMonomial(1, 0, 0).name == "x"
        assert CoordinateMonomial(2, 0, 1).name == "x^2*t"
        assert CoordinateMonomial(0, 3, 0).name == "y^3"

    def test_degree_cap(self):
        CoordinateMonomial(3, 2, 1)
        with pytest.raises(ValueError, match="degree"):
            CoordinateMonomial(4, 2, 1)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            CoordinateMonomial(-1, 0, 0)

    def test_external_lookup(self):
        grid = CovariateGrid(UNIT, GridResolution(2, 1, 1), np.array([5.0, 9.0]))
        f = ExternalCovariate(grid, "elevation")
        assert evaluate_covariate(f, SpaceTimePoint(0.1, 0.5, 0.5)) == 5.0
        assert evaluate_covariate(f, SpaceTimePoint(0.9, 0.5, 0.5)) == 9.0
        assert f.name == "elevation"

    def test_external_outside_grid_window_rejected(self):
        grid = CovariateGrid(UNIT, GridResolution(2, 1, 1), np.array([5.0, 9.0]))
        f = ExternalCovariate(grid, "elevation")
        with pytest.raises(ValueError, match="outside"):
            f.evaluate(np.array([1.2]), np.array([0.5]), np.array([0.5]))

    def test_vectorized_matches_scalar_path(self):
        rng = np.random.default_rng(51)
        grid = smooth_to_grid(random_samples(rng, UNIT, 6), UNIT, GridResolution(3, 3, 3))
        terms = [Intercept(), CoordinateMonomial(2, 1, 0), ExternalCovariate(grid, "z")]
        pts = rng.random((10, 3))
        for f in terms:
            vec = f.evaluate(pts[:, 0], pts[:, 1], pts[:, 2])
            for k in range(10):
                assert vec[k] == evaluate_covariate(f, SpaceTimePoint(*pts[k]))
