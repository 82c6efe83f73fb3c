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
    idw_interpolate,
    smooth_to_grid,
)
from stppfit import covariates
from stppfit.cubature import cell_centers, cell_indices

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
    """Direct IDW: every (query, sample) scaled squared distance in one array.

    A value is ``v_0 + sum_j w_j (v_j - v_0) / sum_j w_j``, centred on the
    first sample's value ``v_0``, with both sums numpy row reductions.
    """
    scale = np.asarray(cfg.scaling)
    d2 = (((queries / scale)[:, None, :] - (xyz / scale)[None, :, :]) ** 2).sum(axis=2)
    near = d2 < 1e-24
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = d2 ** (-cfg.power / 2.0)
        out = np.einsum("ij,j->i", w, vals - vals[0]) / np.einsum("ij->i", w) + vals[0]
    for r in np.flatnonzero(near.any(axis=1)):
        out[r] = np.mean(vals[near[r]])
    return out


def sample_arrays(samples):
    xyz = np.array([s.location for s in samples])
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

    def test_overflowing_weights_raise_the_grid_error(self):
        # one sample 1e-4 away at power 400: its weight 1e1600 leaves double precision
        with pytest.raises(ValueError, match=r"centred at \(0\.5001, 0\.5, 0\.5\), the IDW weights 1/d\^p at power 400"):
            idw_interpolate([sample(0.5, 0.5, 0.5, 1.0)], SpaceTimePoint(0.5001, 0.5, 0.5), IdwConfig(power=400.0))

    @pytest.mark.parametrize("column", [0, 3], ids=["x", "value"])
    def test_nonfinite_array_sample_raises_the_sample_error(self, column):
        table = np.array([[0.5, 0.5, 0.5, 1.0], [0.1, 0.2, 0.3, 2.0]])
        table[1, column] = np.nan
        with pytest.raises(ValueError, match="at least one covariate sample, as finite x, y, t, value rows"):
            idw_interpolate(table, SpaceTimePoint(0.2, 0.2, 0.2))

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
        partners = cell_indices(UNIT, res, *(1 - cell_centers(UNIT, res).T))
        assert (abs(grid.values + grid.values[partners]) < 1e-10).all()

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


@st.composite
def lazy_problems(draw):
    """An ``idw_problems`` draw with an IDW power other than 2."""
    window, res, cfg, samples = draw(idw_problems())
    power = draw(st.floats(0.5, 4.0).filter(lambda p: p != 2.0))
    return window, res, IdwConfig(power=power, scaling=cfg.scaling), samples


class TestLazyGrid:
    @settings(max_examples=60, deadline=None)
    @given(lazy_problems(), st.data())
    def test_values_at_is_bit_identical_to_values_and_pointwise_idw(self, problem, data):
        window, res, cfg, samples = problem
        grid = smooth_to_grid(samples, window, res, cfg)
        full = smooth_to_grid(samples, window, res, cfg).values
        centers = cell_centers(window, res)
        some_ids = st.lists(st.integers(0, res.n_cells - 1), min_size=1, max_size=2 * res.n_cells)
        for ids in (data.draw(some_ids), data.draw(some_ids)):
            got = grid.values_at(ids)
            assert got.tobytes() == full[ids].tobytes()
            pointwise = [idw_interpolate(samples, SpaceTimePoint(*centers[i]), cfg) for i in ids]
            assert got.tobytes() == np.array(pointwise).tobytes()
        assert grid.values.tobytes() == full.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(idw_problems(), st.data())
    def test_nonfinite_computed_cell_raises_when_read(self, problem, data):
        # a sample 1e-6 scaled units from a cell center gives that cell the weight
        # (1e-12)**-30 = inf under power 60, so its IDW value is nan
        window, res, cfg, _ = problem
        cell = data.draw(st.integers(0, res.n_cells - 1))
        site = cell_centers(window, res)[cell] + np.array([1e-6 * cfg.scaling[0], 0.0, 0.0])
        grid = smooth_to_grid([sample(*site, 1.0)], window, res, IdwConfig(60.0, cfg.scaling))
        for _ in range(2):  # a failed cell stays unread and fails again
            with pytest.raises(ValueError, match="grid values must all be finite"):
                grid.values_at([cell])
        with pytest.raises(ValueError, match="grid values must all be finite"):
            grid.values

    def test_reads_compute_each_distinct_cell_once(self, monkeypatch):
        computed = []
        kernel = covariates._idw_cells

        def counted(axes, ix, *rest):
            computed.append(len(ix))
            return kernel(axes, ix, *rest)

        monkeypatch.setattr(covariates, "_idw_cells", counted)
        rng = np.random.default_rng(71)
        grid = smooth_to_grid(random_samples(rng, UNIT, 5), UNIT, GridResolution(4, 4, 4))
        assert computed == []
        grid.values_at([5, 5, 7])
        grid.values_at([7, 9, 9, 5])
        grid.values_at([9])
        assert computed == [2, 1]
        grid.values
        grid.values_at(np.arange(64))
        assert computed == [2, 1, 61]

    def test_out_of_range_ids_raise_and_leave_the_cache_alone(self):
        rng = np.random.default_rng(73)
        samples, res = random_samples(rng, UNIT, 5), GridResolution(2, 2, 2)
        grid = smooth_to_grid(samples, UNIT, res)
        for ids, first in (([-1], -1), ([3, 8, -2], 8), ([0, -9], -9)):
            with pytest.raises(IndexError, match=f"cell id {first} is outside 0 ... 7"):
                grid.values_at(ids)
        fresh = smooth_to_grid(samples, UNIT, res)
        assert grid.values_at([7]).tobytes() == fresh.values_at([7]).tobytes()
        assert grid.values.tobytes() == fresh.values.tobytes()

    def test_given_values_are_never_computed(self):
        grid = CovariateGrid(UNIT, GridResolution(2, 1, 1), np.array([5.0, 9.0]))
        assert grid.samples is None and grid.idw is None
        np.testing.assert_array_equal(grid.values_at([1, 1, 0]), [9.0, 9.0, 5.0])

    @pytest.mark.parametrize(
        "kwargs",
        [{"samples": np.ones((3, 3)), "idw": IdwConfig()}, {"samples": np.empty((0, 4)), "idw": IdwConfig()},
         {"samples": [[0.5, 0.5, np.inf, 1.0]], "idw": IdwConfig()}, {"samples": np.ones((1, 4))}],
        ids=["three-columns", "empty", "nonfinite", "no-idw"],
    )
    def test_invalid_samples_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CovariateGrid(UNIT, GridResolution(2, 2, 2), **kwargs)


class TestCentredIdw:
    """The kernel's sums are centred on the first sample's value, and it checks
    coincidence only where every axis comes close to some sample."""

    @settings(max_examples=60, deadline=None)
    @given(idw_problems(), st.integers(-2**30, 2**30))
    def test_constant_field_is_exact_in_every_cell(self, problem, k):
        # a dyadic c keeps the mean of coincident samples exact too
        window, res, cfg, samples = problem
        c = k / 1024.0
        grid = smooth_to_grid([CovariateSample(s.location, c) for s in samples], window, res, cfg)
        assert (grid.values == c).all()

    @settings(max_examples=60, deadline=None)
    @given(idw_problems(), st.floats(-1e6, 1e6))
    def test_lone_sample_is_exact_on_the_whole_grid(self, problem, value):
        window, res, cfg, samples = problem
        grid = smooth_to_grid([CovariateSample(samples[-1].location, value)], window, res, cfg)
        assert (grid.values == value).all()

    @settings(max_examples=60, deadline=None)
    @given(lazy_problems(), st.data())
    def test_any_order_split_and_block_size_match_the_oracle(self, problem, data):
        window, res, cfg, samples = problem
        want = oracle_idw(cell_centers(window, res), *sample_arrays(samples), cfg)
        ids = data.draw(st.lists(st.integers(0, res.n_cells - 1), min_size=1, max_size=3 * res.n_cells))
        ids = data.draw(st.permutations(ids))
        cuts = sorted(data.draw(st.lists(st.integers(0, len(ids)), max_size=4)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(covariates, "_BLOCK_PAIRS", data.draw(st.integers(1, 3 * len(samples))))
            grid = smooth_to_grid(samples, window, res, cfg)
            for a, b in zip([0, *cuts], [*cuts, len(ids)]):
                assert grid.values_at(ids[a:b]).tobytes() == want[ids[a:b]].tobytes()
            assert grid.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("axis", [0, 1, 2], ids=["x", "y", "t"])
    def test_matching_a_center_on_two_axes_is_not_coincident(self, axis):
        # each axis of cell 7's center meets one of the two samples, so the
        # cell is checked, but neither sample sits on the center
        window = Window.from_bounds(0, 1000, 0, 1000, 2000, 2020)
        res, cfg = GridResolution(4, 3, 2), IdwConfig.for_window(window)
        center = cell_centers(window, res)[7]
        offsets = 1e-3 * np.eye(3)[[axis, (axis + 1) % 3]] * window.lengths
        samples = [sample(*(center + offsets[0]), 1.0), sample(*(center + offsets[1]), -1.0)]
        got = smooth_to_grid(samples, window, res, cfg).values
        assert got.tobytes() == oracle_idw(cell_centers(window, res), *sample_arrays(samples), cfg).tobytes()
        assert abs(got[7]) < 1e-9  # the two samples are about equally far: not either value
        samples.append(sample(*center, 5.0))
        assert smooth_to_grid(samples, window, res, cfg).values[7] == 5.0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-5, 40), max_size=60))
    def test_sorted_distinct_ids_equal_np_unique(self, ids):
        ids = np.array(ids, dtype=np.intp)
        got, want = covariates._distinct(ids), np.unique(ids)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


class TestNearestGridValue:
    """An external covariate reads the value of the grid cell containing each point."""

    def make_term(self):
        return ExternalCovariate(CovariateGrid(UNIT, GridResolution(2, 2, 2), np.arange(8.0)), "z")

    def test_cell_center_hits_its_cell(self):
        assert self.make_term().evaluate([0.25, 0.75], [0.25, 0.75], [0.25, 0.75]).tolist() == [0.0, 7.0]

    def test_upper_corner_clamps_to_last_cell(self):
        assert self.make_term().evaluate([1.0], [1.0], [1.0]).tolist() == [7.0]

    def test_interior_boundary_sides(self):
        below_above = self.make_term().evaluate([0.5 - 1e-9, 0.5], [0.25, 0.25], [0.25, 0.25])
        assert below_above.tolist() == [0.0, 1.0]

    def test_outside_window_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            self.make_term().evaluate([1.5], [0.5], [0.5])

    def test_equals_idw_at_containing_cell_center(self):
        rng = np.random.default_rng(41)
        samples = random_samples(rng, UNIT, 7)
        res = GridResolution(3, 3, 3)
        cfg = IdwConfig.for_window(UNIT)
        pts = rng.random((20, 3))
        values = ExternalCovariate(smooth_to_grid(samples, UNIT, res, cfg), "z").evaluate(*pts.T)
        centers = cell_centers(UNIT, res)[cell_indices(UNIT, res, *pts.T)]
        assert values.tolist() == [idw_interpolate(samples, SpaceTimePoint(*c), cfg) for c in centers]


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
        assert Intercept().evaluate([0.3], [0.9], [2.0]).tolist() == [1.0]

    def test_monomial_example(self):
        f = CoordinateMonomial(1, 0, 2)
        assert f.evaluate([2.0], [5.0], [3.0]).tolist() == [18.0]

    def test_degenerate_monomial_is_intercept(self):
        f = CoordinateMonomial(0, 0, 0)
        assert f.name == "1"
        assert f.evaluate([9.0], [9.0], [9.0]).tolist() == [1.0]

    def test_intercept_is_the_degree_zero_monomial_under_its_own_type(self):
        assert Intercept() == Intercept() and hash(Intercept()) == hash(Intercept())
        assert Intercept() != CoordinateMonomial(0, 0, 0) and CoordinateMonomial(0, 0, 0) != Intercept()
        assert isinstance(Intercept(), CoordinateMonomial)
        assert repr(Intercept()) == "Intercept()" and Intercept().name == "1"
        assert len({Intercept(), Intercept(), CoordinateMonomial(0, 0, 0)}) == 2
        with pytest.raises(TypeError):
            Intercept(1, 0, 0)

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
        assert f.evaluate([0.1, 0.9], [0.5, 0.5], [0.5, 0.5]).tolist() == [5.0, 9.0]
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
                assert vec[k] == f.evaluate(*pts[k : k + 1].T)[0]
