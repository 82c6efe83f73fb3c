import dataclasses
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stppfit import (
    CoordinateMonomial,
    CovariateGrid,
    DesignMatrix,
    ExternalCovariate,
    FitError,
    GridResolution,
    Intercept,
    IrlsConfig,
    MarkedPointPattern,
    MarkFixedEffects,
    ModelSpec,
    PointPattern,
    SimConfig,
    SpaceTimePoint,
    Window,
    build_design,
    build_replicated_scheme,
    build_scheme,
    fit_irls,
    fit_multitype,
    fit_stpp,
    ground_pattern,
    parse_log_linear,
    parse_term_list,
    replicated_responses,
    simulate_homogeneous,
    simulate_inhomogeneous,
    split_by_mark,
)

UNIT = Window.unit_cube()
RES8 = GridResolution(8, 8, 8)


def uniform_pattern(n, seed=0, window=UNIT):
    rng = np.random.default_rng(seed)
    coords = np.column_stack(
        [lo + rng.random(n) * (hi - lo) for lo, hi in window.ranges]
    )
    return PointPattern.from_arrays(window, coords[:, 0], coords[:, 1], coords[:, 2])


def marked_pattern(n_a, n_b, seed=0):
    rng = np.random.default_rng(seed)
    pts = [(SpaceTimePoint(*rng.random(3)), "A") for _ in range(n_a)]
    pts += [(SpaceTimePoint(*rng.random(3)), "B") for _ in range(n_b)]
    return MarkedPointPattern.from_labeled(UNIT, pts)


def spy_on(monkeypatch, *targets):
    """Wrap each ``(module, name)`` function; the returned list collects one
    ``("module.name", [shape of each array argument])`` per call."""
    calls = []
    for module, attr in targets:

        def spy(*args, _call=getattr(module, attr), _name=f"{module.__name__}.{attr}", **kwargs):
            calls.append((_name, [np.shape(a) for a in args if isinstance(a, np.ndarray)]))
            return _call(*args, **kwargs)

        monkeypatch.setattr(module, attr, spy)
    return calls


class TestModelSpec:
    def test_needs_at_least_one_term(self):
        with pytest.raises(ValueError, match="at least one term"):
            ModelSpec(())

    def test_single_intercept_only(self):
        with pytest.raises(ValueError, match="intercept"):
            ModelSpec((Intercept(), Intercept()))

    def test_degree_zero_monomial_counts_as_an_intercept(self):
        # `--terms 1,x^0` fails here, before the column names are compared
        with pytest.raises(ValueError, match="at most one intercept term is allowed"):
            ModelSpec((Intercept(), CoordinateMonomial(0, 0, 0)))
        with pytest.raises(ValueError, match="at most one intercept term is allowed"):
            ModelSpec((CoordinateMonomial(0, 0, 0), CoordinateMonomial(0, 0, 0)))

    def test_mark_ridge_requires_multitype_mode(self):
        with pytest.raises(ValueError, match="multitype"):
            ModelSpec((Intercept(),), ridge_on_marks=1.0)

    def test_mark_ridge_requires_shared_terms(self):
        # under interact_all every column is mark-specific, so a ridge would
        # shrink each level's intercept toward zero and bias the counts
        terms = (Intercept(), CoordinateMonomial(1, 0, 0))
        with pytest.raises(ValueError, match="interact_all=False"):
            ModelSpec(terms, MarkFixedEffects(True), ridge_on_marks=1.0)
        assert ModelSpec(terms, MarkFixedEffects(True), ridge_on_marks=0.0).ridge_on_marks == 0.0
        assert ModelSpec(terms, MarkFixedEffects(False), ridge_on_marks=1.0).ridge_on_marks == 1.0


class TestBuildDesign:
    def test_intercept_gives_ones_column(self):
        scheme = build_scheme(PointPattern(UNIT), GridResolution(2, 2, 2))
        design = build_design(scheme, ModelSpec((Intercept(),)))
        np.testing.assert_array_equal(design.values, np.ones((8, 1)))
        assert design.column_names == ("1",)

    def test_x_column_holds_cell_centers(self):
        scheme = build_scheme(PointPattern(UNIT), GridResolution(2, 1, 1))
        design = build_design(scheme, ModelSpec((Intercept(), CoordinateMonomial(1, 0, 0))))
        np.testing.assert_array_equal(design.values[:, 1], [0.25, 0.75])
        assert design.column_names == ("1", "x")

    def test_constant_external_grid_gives_constant_column(self):
        grid = CovariateGrid(UNIT, GridResolution(2, 2, 2), np.full(8, 2.5))
        scheme = build_scheme(PointPattern(UNIT), GridResolution(3, 3, 3))
        design = build_design(scheme, ModelSpec((Intercept(), ExternalCovariate(grid, "z"))))
        np.testing.assert_array_equal(design.values[:, 1], np.full(27, 2.5))

    def test_external_grid_must_cover_window(self):
        small = Window.from_bounds(0, 0.5, 0, 1, 0, 1)
        grid = CovariateGrid(small, GridResolution(2, 2, 2), np.ones(8))
        scheme = build_scheme(PointPattern(UNIT), GridResolution(2, 2, 2))
        with pytest.raises(ValueError, match="does not\\s+cover|cover"):
            build_design(scheme, ModelSpec((ExternalCovariate(grid, "z"),)))


class TestFitStpp:
    def test_intercept_only_closed_form(self):
        pat = uniform_pattern(100, seed=1)
        model = fit_stpp(pat, ModelSpec((Intercept(),)), RES8)
        assert model.fit.coefficients[0] == pytest.approx(math.log(100.0), abs=1e-8)
        assert model.fit.converged

    def test_intercept_scales_with_volume(self):
        window = Window.from_bounds(0, 2, 0, 1, 0, 1)
        pat = uniform_pattern(100, seed=2, window=window)
        model = fit_stpp(pat, ModelSpec((Intercept(),)), RES8)
        assert model.fit.coefficients[0] == pytest.approx(math.log(50.0), abs=1e-8)

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError, match="no points"):
            fit_stpp(PointPattern(UNIT), ModelSpec((Intercept(),)), RES8)

    @pytest.mark.parametrize("n_data", [0, -5, 150.7, 150.0, True, "150"])
    def test_n_data_must_be_a_count_of_data_points(self, n_data):
        model = fit_stpp(uniform_pattern(20, seed=3), ModelSpec((Intercept(),)), RES8)
        assert model.n_data == 20
        with pytest.raises(ValueError, match=re.escape(f"n_data must be an integer >= 1, the count of fitted data "
                                                      f"points, got {n_data!r}")):
            dataclasses.replace(model, n_data=n_data)

    def test_marked_pattern_directed_to_fit_multitype(self):
        with pytest.raises(ValueError, match="use fit_multitype"):
            fit_stpp(marked_pattern(5, 5, seed=26), ModelSpec((Intercept(),)), RES8)

    def test_nonexistent_mle_is_an_error(self):
        # one simulated point against 3^3 dummies (seed 2, rung 3 of the
        # convergence study of -0.5 + 0.3*x): the likelihood keeps rising as
        # the x slope grows, so IRLS runs into the linear-predictor bound
        pattern = simulate_inhomogeneous(
            UNIT, lambda x, y, t: np.exp(-0.5 + 0.3 * x), SimConfig(seed=2, lambda_max=0.9)
        )
        assert pattern.n == 1
        spec = ModelSpec((Intercept(), CoordinateMonomial(1, 0, 0)))
        with pytest.raises(FitError, match="maximum-likelihood estimate does not exist"):
            fit_stpp(pattern, spec, GridResolution(3, 3, 3))

    def test_multitype_spec_rejected(self):
        pat = uniform_pattern(10, seed=3)
        spec = ModelSpec((Intercept(),), multitype_mode=MarkFixedEffects())
        with pytest.raises(ValueError, match="fit_multitype"):
            fit_stpp(pat, spec, RES8)

    def test_recovers_simulation_truth_within_three_se(self):
        # shipped seed: estimates recorded below on first computation
        pat = simulate_inhomogeneous(
            UNIT, lambda x, y, t: np.exp(4.0 + 1.2 * x), SimConfig(seed=4, lambda_max=185.0)
        )
        spec = ModelSpec((Intercept(), CoordinateMonomial(1, 0, 0)))
        model = fit_stpp(pat, spec, GridResolution(15, 15, 15))
        est = model.fit.coefficients
        se = model.fit.std_errors()
        np.testing.assert_allclose(est, [3.957012200019554, 1.2473405190736215], atol=1e-10)
        assert np.all(np.abs(est - [4.0, 1.2]) < 3 * se)

    def test_reported_loglik_matches_design_evaluation(self):
        from stppfit import responses, weighted_poisson_loglik

        pat = uniform_pattern(60, seed=5)
        spec = ModelSpec((Intercept(), CoordinateMonomial(0, 0, 1)))
        model = fit_stpp(pat, spec, RES8)
        scheme = build_scheme(pat, RES8)
        design = build_design(scheme, spec)
        want = weighted_poisson_loglik(
            design, responses(scheme), scheme.weights, model.fit.coefficients
        )
        assert model.fit.log_likelihood_approx == want

    def test_aic_definition(self):
        pat = uniform_pattern(40, seed=6)
        model = fit_stpp(pat, ModelSpec((Intercept(),)), RES8)
        assert model.aic == pytest.approx(2 * 1 - 2 * model.fit.log_likelihood_approx)

    def test_fit_peak_memory_stays_within_a_few_designs(self):
        # the K x 4 design B, gram's weighted copy of it and four vectors of K
        # entries make 3 designs; extra copies (a whole-B QR, a stacked design,
        # an eta or the coordinates kept through the IRLS) took it to 4.3
        expr = parse_log_linear("7.5 + 1*x - 0.8*t + 1*x*y")
        pattern = simulate_inhomogeneous(UNIT, expr.intensity, SimConfig(seed=5, lambda_max=math.exp(9.6)))
        assert pattern.n == 2964
        spec = ModelSpec(parse_term_list("1,x,t,x*y"))
        res = GridResolution(48, 48, 48)
        fit_stpp(uniform_pattern(20, seed=7), spec, RES8)  # load what a first fit loads
        tracemalloc.start()
        try:
            fit_stpp(pattern, spec, res)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        design_bytes = (pattern.n + res.n_cells) * len(spec.terms) * 8
        assert peak <= 3.5 * design_bytes


class TestInterceptScoreIdentity:
    def test_fitted_intensity_integrates_to_count_on_scheme(self):
        pat = simulate_inhomogeneous(
            UNIT, lambda x, y, t: np.exp(4.0 + 1.2 * x), SimConfig(seed=8, lambda_max=185.0)
        )
        spec = ModelSpec((Intercept(), CoordinateMonomial(1, 0, 0)))
        model = fit_stpp(pat, spec, GridResolution(12, 12, 12))
        scheme = build_scheme(pat, GridResolution(12, 12, 12))
        lam = model.intensity_values(
            scheme.coords[:, 0], scheme.coords[:, 1], scheme.coords[:, 2]
        )
        assert abs(float(np.dot(scheme.weights, lam)) - pat.n) <= 1e-6 * pat.n


class TestPredict:
    def test_constant_model_predicts_rate_everywhere(self):
        pat = uniform_pattern(100, seed=7)
        model = fit_stpp(pat, ModelSpec((Intercept(),)), RES8)
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = SpaceTimePoint(*rng.random(3))
            assert model.predict_intensity(p) == pytest.approx(100.0, abs=1e-6)

    def test_monotone_in_x_for_positive_slope(self):
        pat = simulate_inhomogeneous(
            UNIT, lambda x, y, t: np.exp(4.0 + 1.2 * x), SimConfig(seed=9, lambda_max=185.0)
        )
        model = fit_stpp(
            pat, ModelSpec((Intercept(), CoordinateMonomial(1, 0, 0))), GridResolution(10, 10, 10)
        )
        assert model.fit.coefficients[1] > 0
        vals = [
            model.predict_intensity(SpaceTimePoint(x, 0.5, 0.5))
            for x in np.linspace(0, 1, 9)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_prediction_outside_window_rejected(self):
        model = fit_stpp(uniform_pattern(20, seed=10), ModelSpec((Intercept(),)), RES8)
        with pytest.raises(ValueError, match="outside"):
            model.predict_intensity(SpaceTimePoint(1.5, 0.5, 0.5))

    @pytest.mark.parametrize("x, y, t", [(2.0, 0.5, 0.5), (0.5, -1e-9, 0.5), (0.5, 0.5, math.nan)])
    def test_every_prediction_path_has_one_window_rule(self, x, y, t):
        # the vector and scalar paths share one message, whatever terms the model holds
        from stppfit.io import load_model

        model = fit_stpp(uniform_pattern(40, seed=12), ModelSpec((Intercept(), CoordinateMonomial(1, 0, 0))), RES8)
        covariate = load_model(Path(__file__).parent / "fixtures" / "golden_covariate.json")
        message = re.escape(f"point ({x}, {y}, {t}) lies outside the fitted window")
        for m in (model, covariate):
            with pytest.raises(ValueError, match=message):
                m.intensity_values(np.array([0.5, x]), [0.5, y], [0.5, t])
            if math.isfinite(t):  # a SpaceTimePoint is finite
                with pytest.raises(ValueError, match=message):
                    m.predict_intensity(SpaceTimePoint(x, y, t))

    def test_window_boundary_is_inside(self):
        model = fit_stpp(uniform_pattern(40, seed=12), ModelSpec((Intercept(), CoordinateMonomial(1, 0, 0))), RES8)
        corners = [0.0, 1.0, 0.0, 1.0]
        got = model.intensity_values(corners, [0.0, 0.0, 1.0, 1.0], [1.0, 0.0, 0.0, 1.0])
        assert got.tobytes() == np.exp(model.coefficients[0] + model.coefficients[1] * np.array(corners)).tobytes()
        assert model.intensity_values([], [], []).shape == (0,)

    def test_mark_argument_on_unmarked_model_rejected(self):
        model = fit_stpp(uniform_pattern(20, seed=11), ModelSpec((Intercept(),)), RES8)
        with pytest.raises(ValueError, match="unmarked"):
            model.predict_intensity(SpaceTimePoint(0.5, 0.5, 0.5), mark="A")

    def test_prediction_matches_design_rows_bit_for_bit(self):
        pat = uniform_pattern(50, seed=12)
        spec = ModelSpec(
            (Intercept(), CoordinateMonomial(1, 0, 0), CoordinateMonomial(0, 1, 1))
        )
        model = fit_stpp(pat, spec, RES8)
        scheme = build_scheme(pat, RES8)
        design = build_design(scheme, spec)
        theta = model.fit.coefficients
        for k in range(0, scheme.size, 37):
            p = SpaceTimePoint(*scheme.coords[k])
            want = float(np.exp(np.dot(design.values[k], theta)))
            assert model.predict_intensity(p) == want


class TestExpectedCount:
    def test_constant_fit_returns_count(self):
        pat = uniform_pattern(100, seed=13)
        model = fit_stpp(pat, ModelSpec((Intercept(),)), RES8)
        assert abs(model.expected_count() - 100.0) <= 1e-6 * 100.0

    def test_loglinear_fit_close_to_count(self):
        pat = simulate_inhomogeneous(
            UNIT, lambda x, y, t: np.exp(4.0 + 1.2 * x), SimConfig(seed=14, lambda_max=185.0)
        )
        model = fit_stpp(
            pat, ModelSpec((Intercept(), CoordinateMonomial(1, 0, 0))), GridResolution(15, 15, 15)
        )
        assert model.expected_count(GridResolution(20, 20, 20)) == pytest.approx(
            pat.n, rel=0.01
        )

    def test_doubling_volume_halves_constant_intensity(self):
        pat = uniform_pattern(80, seed=15)
        small = fit_stpp(pat, ModelSpec((Intercept(),)), RES8)
        big_window = Window.from_bounds(0, 2, 0, 1, 0, 1)
        big = fit_stpp(
            PointPattern(big_window, pat.points), ModelSpec((Intercept(),)), RES8
        )
        p = SpaceTimePoint(0.5, 0.5, 0.5)
        assert big.predict_intensity(p) == pytest.approx(
            small.predict_intensity(p) / 2.0, rel=1e-9
        )


class TestRefinementStability:
    def test_coefficients_form_cauchy_like_sequence(self):
        pat = simulate_inhomogeneous(
            UNIT, lambda x, y, t: np.exp(4.0 + 1.2 * x), SimConfig(seed=9, lambda_max=185.0)
        )
        spec = ModelSpec((Intercept(), CoordinateMonomial(1, 0, 0)))
        coefs = [
            fit_stpp(pat, spec, GridResolution(r, r, r)).fit.coefficients
            for r in (8, 16, 32)
        ]
        d1 = np.abs(coefs[1] - coefs[0]).max()
        d2 = np.abs(coefs[2] - coefs[1]).max()
        assert d2 < d1


class TestFitMultitype:
    def test_interacted_intercepts_match_per_level_closed_form(self):
        pat = marked_pattern(30, 70, seed=16)
        spec = ModelSpec((Intercept(),), multitype_mode=MarkFixedEffects(True))
        model = fit_multitype(pat, spec, RES8)
        assert model.column_names == ("A:1", "B:1")
        assert model.fit.coefficients[0] == pytest.approx(math.log(30.0), abs=1e-8)
        assert model.fit.coefficients[1] == pytest.approx(math.log(70.0), abs=1e-8)

    def test_interacted_intercepts_equal_separate_fits(self):
        pat = marked_pattern(12, 25, seed=17)
        spec = ModelSpec((Intercept(),), multitype_mode=MarkFixedEffects(True))
        joint = fit_multitype(pat, spec, RES8)
        for i, (lv, sub) in enumerate(split_by_mark(pat).items()):
            single = fit_stpp(sub, ModelSpec((Intercept(),)), RES8)
            assert joint.fit.coefficients[i] == pytest.approx(
                single.fit.coefficients[0], abs=1e-8
            )

    def test_contrast_mode_recovers_log_ratio(self):
        pat = marked_pattern(30, 70, seed=18)
        spec = ModelSpec((Intercept(),), multitype_mode=MarkFixedEffects(False))
        model = fit_multitype(pat, spec, RES8)
        assert model.column_names == ("1", "mark[B]")
        assert model.fit.coefficients[1] == pytest.approx(math.log(70.0 / 30.0), abs=1e-8)

    def test_strong_mark_ridge_shrinks_contrast(self):
        pat = marked_pattern(30, 70, seed=19)
        spec = ModelSpec(
            (Intercept(),), multitype_mode=MarkFixedEffects(False), ridge_on_marks=1e8
        )
        model = fit_multitype(pat, spec, RES8)
        assert abs(model.fit.coefficients[1]) < 1e-3

    def test_separability_against_per_block_fits(self):
        # the replicated likelihood is a sum of independent per-level blocks,
        # so the joint fully-interacted fit must match fits of each block
        pat = marked_pattern(40, 60, seed=20)
        terms = (Intercept(), CoordinateMonomial(1, 0, 0))
        spec = ModelSpec(terms, multitype_mode=MarkFixedEffects(True))
        joint = fit_multitype(pat, spec, RES8)
        rep = build_replicated_scheme(pat, RES8)
        base = np.column_stack(
            [t.evaluate(rep.coords[:, 0], rep.coords[:, 1], rep.coords[:, 2]) for t in terms]
        )
        y_all = replicated_responses(rep)
        for i, lv in enumerate(rep.levels):
            block = fit_irls(
                DesignMatrix(base, ("1", "x")), y_all[i], rep.weights_by_level[i]
            )
            np.testing.assert_allclose(
                joint.fit.coefficients[2 * i : 2 * i + 2],
                block.coefficients,
                atol=1e-6,
            )

    def test_interact_all_rank_check_runs_once_on_the_base(self, monkeypatch):
        # numpy reduces the K x p base B (not the M*K-row expansion) to one R per
        # row block, then the stacked Rs to B's p x p R; LAPACK's pivoted QR runs
        # once, on that R
        import stppfit.glm

        block = 100
        monkeypatch.setattr(stppfit.glm, "_RANK_BLOCK_ROWS", block)
        calls = spy_on(monkeypatch, (np.linalg, "qr"), (stppfit.glm, "_pivoted_qr"))
        pat = marked_pattern(40, 60, seed=20)
        terms = (Intercept(), CoordinateMonomial(1, 0, 0), CoordinateMonomial(0, 0, 1))
        fit_multitype(pat, ModelSpec(terms, multitype_mode=MarkFixedEffects(True)), RES8)
        k = build_replicated_scheme(pat, RES8).size
        numpy_shapes = [shape for name, shapes in calls if name == "numpy.linalg.qr" for shape in shapes]
        n_blocks = -(-k // block)
        assert numpy_shapes == [(min(block, k - i), 3) for i in range(0, k, block)] + [(3 * n_blocks, 3)]
        assert max(rows for rows, _ in numpy_shapes) <= block < k  # no call sees more than one block of B
        assert all(rows < 2 * k for rows, _ in numpy_shapes)  # none sees the M*K expansion
        assert [s for name, s in calls if name == "stppfit.glm._pivoted_qr"] == [[(3, 3)]]

    def test_scipy_sees_only_design_column_sized_arrays(self, monkeypatch):
        # numpy and scipy bundle separate OpenBLAS pools; scipy's stays idle
        # as long as its LAPACK gets at most p x p matrices and one 1-D right-hand side
        import stppfit.glm

        rng = np.random.default_rng(31)
        labels = [f"L{m:02d}" for m in range(12)]
        twelve = MarkedPointPattern.from_labeled(
            UNIT, [(SpaceTimePoint(*rng.random(3)), lv) for lv in labels for _ in range(15)]
        )
        terms = (Intercept(), CoordinateMonomial(1, 0, 0), CoordinateMonomial(0, 0, 1))
        fits = [
            lambda: fit_stpp(uniform_pattern(80, seed=32), ModelSpec(terms), RES8),
            lambda: fit_multitype(twelve, ModelSpec(terms, MarkFixedEffects(True)), RES8),
            lambda: fit_multitype(
                marked_pattern(30, 50, seed=33), ModelSpec(terms, MarkFixedEffects(False), ridge_on_marks=0.5), RES8
            ),
        ]
        wrappers = ("_pivoted_qr", "_cho_factor", "_cho_solve")
        calls = spy_on(monkeypatch, *((stppfit.glm, f) for f in wrappers))
        for fit in fits:
            calls.clear()
            p = fit().fit.coefficients.size
            assert {name for name, _ in calls} == {f"stppfit.glm.{f}" for f in wrappers}
            for name, (matrix, *rhs) in calls:
                assert len(matrix) == 2 and max(matrix) <= p, (name, matrix, p)
                assert all(len(b) == 1 for b in rhs), (name, rhs)

    def test_single_level_directed_to_fit_stpp(self):
        rng = np.random.default_rng(21)
        pts = [(SpaceTimePoint(*rng.random(3)), "solo") for _ in range(5)]
        pat = MarkedPointPattern.from_labeled(UNIT, pts)
        spec = ModelSpec((Intercept(),), multitype_mode=MarkFixedEffects(True))
        with pytest.raises(ValueError, match="fit_stpp"):
            fit_multitype(pat, spec, RES8)

    def test_empty_level_rejected(self):
        rng = np.random.default_rng(22)
        levels = ("A", "B")
        pts = tuple(SpaceTimePoint(*rng.random(3)) for _ in range(4))
        pat = MarkedPointPattern(UNIT, pts, [0] * len(pts), levels)
        spec = ModelSpec((Intercept(),), multitype_mode=MarkFixedEffects(True))
        with pytest.raises(ValueError, match="'B'"):
            fit_multitype(pat, spec, RES8)

    def test_unmarked_spec_rejected(self):
        pat = marked_pattern(5, 5, seed=23)
        with pytest.raises(ValueError, match="fit_stpp"):
            fit_multitype(pat, ModelSpec((Intercept(),)), RES8)

    def test_unmarked_pattern_directed_to_fit_stpp(self):
        spec = ModelSpec((Intercept(),), multitype_mode=MarkFixedEffects(False))
        with pytest.raises(ValueError, match="use fit_stpp"):
            fit_multitype(uniform_pattern(10, seed=24), spec, RES8)

    def test_strong_mark_ridge_leaves_shared_terms_unpenalized(self):
        # with the contrasts pinned at zero every level has the same intensity,
        # so the shared terms are the ground fit with the intercept less log(M)
        pat = marked_pattern(30, 70, seed=27)
        terms = (Intercept(), CoordinateMonomial(1, 0, 0))
        spec = ModelSpec(terms, multitype_mode=MarkFixedEffects(False), ridge_on_marks=1e8)
        model = fit_multitype(pat, spec, RES8)
        ground = fit_stpp(ground_pattern(pat), ModelSpec(terms), RES8)
        expected = ground.fit.coefficients - [math.log(2.0), 0.0]
        np.testing.assert_allclose(model.fit.coefficients[:2], expected, atol=1e-5)
        assert model.expected_count() == pytest.approx(100.0, rel=1e-3)


class TestMarkedPrediction:
    def make_model(self, interact=True):
        pat = marked_pattern(30, 70, seed=25)
        spec = ModelSpec((Intercept(),), multitype_mode=MarkFixedEffects(interact))
        return fit_multitype(pat, spec, RES8)

    def test_per_level_intensity_closed_form(self):
        model = self.make_model()
        p = SpaceTimePoint(0.4, 0.4, 0.4)
        assert model.predict_intensity(p, mark="A") == pytest.approx(30.0, abs=1e-6)
        assert model.predict_intensity(p, mark="B") == pytest.approx(70.0, abs=1e-6)

    def test_contrast_mode_prediction(self):
        model = self.make_model(interact=False)
        p = SpaceTimePoint(0.4, 0.4, 0.4)
        assert model.predict_intensity(p, mark="A") == pytest.approx(30.0, abs=1e-6)
        assert model.predict_intensity(p, mark="B") == pytest.approx(70.0, abs=1e-6)

    def test_marginal_is_sum_of_levels(self):
        model = self.make_model()
        rng = np.random.default_rng(1)
        for _ in range(25):
            p = SpaceTimePoint(*rng.random(3))
            per_level = [model.predict_intensity(p, mark=lv) for lv in model.levels]
            marg = model.marginal_intensity(p)
            assert marg == sum(per_level)
            assert all(marg >= v for v in per_level)

    @pytest.mark.parametrize("interact", [True, False])
    def test_marginal_values_is_in_order_sum_of_intensity_values(self, interact):
        pat = marked_pattern(30, 70, seed=25)
        terms = (Intercept(), CoordinateMonomial(1, 0, 0), CoordinateMonomial(0, 1, 1))
        model = fit_multitype(pat, ModelSpec(terms, multitype_mode=MarkFixedEffects(interact)), RES8)
        x, y, t = np.random.default_rng(2).random((3, 200))
        want = np.zeros(200)
        for lv in model.levels:
            want += model.intensity_values(x, y, t, mark=lv)
        assert model.marginal_values(x, y, t).tobytes() == want.tobytes()

    def test_marginal_closed_form(self):
        model = self.make_model()
        p = SpaceTimePoint(0.2, 0.9, 0.6)
        assert model.marginal_intensity(p) == pytest.approx(100.0, abs=1e-6)

    def test_marginal_outside_window_rejected(self):
        model = self.make_model()
        with pytest.raises(ValueError, match="outside"):
            model.marginal_intensity(SpaceTimePoint(0.5, 1.5, 0.5))

    def test_marginal_values_outside_window_rejected(self):
        model = self.make_model()
        with pytest.raises(ValueError, match=re.escape("point (0.5, 0.5, nan) lies outside the fitted window")):
            model.marginal_values([0.5, 0.5], [0.5, 0.5], [0.5, math.nan])
        with pytest.raises(ValueError, match=re.escape("point (0.5, 1.5, 0.5) lies outside the fitted window")):
            model.intensity_values([0.5], [1.5], [0.5], mark=model.levels[0])

    def test_missing_mark_rejected(self):
        model = self.make_model()
        with pytest.raises(ValueError, match="marked"):
            model.predict_intensity(SpaceTimePoint(0.5, 0.5, 0.5))

    def test_unknown_mark_rejected(self):
        model = self.make_model()
        with pytest.raises(KeyError, match="C"):
            model.predict_intensity(SpaceTimePoint(0.5, 0.5, 0.5), mark="C")

    def test_marginal_on_unmarked_model_rejected(self):
        plain = fit_stpp(uniform_pattern(10, seed=26), ModelSpec((Intercept(),)), RES8)
        with pytest.raises(ValueError, match="marked"):
            plain.marginal_intensity(SpaceTimePoint(0.5, 0.5, 0.5))

    def test_marked_expected_count_integrates_marginal(self):
        model = self.make_model()
        assert model.expected_count() == pytest.approx(100.0, rel=1e-6)


class TestSeparabilityHomogeneous:
    def test_two_simulated_levels(self):
        rng_seeds = (101, 102)
        subs = [
            simulate_homogeneous(UNIT, rate, SimConfig(seed))
            for rate, seed in zip((40.0, 90.0), rng_seeds)
        ]
        pts = [(p, "A") for p in subs[0].points] + [(p, "B") for p in subs[1].points]
        pat = MarkedPointPattern.from_labeled(UNIT, pts)
        spec = ModelSpec((Intercept(),), multitype_mode=MarkFixedEffects(True))
        model = fit_multitype(pat, spec, RES8)
        for i, sub in enumerate(subs):
            assert model.fit.coefficients[i] == pytest.approx(
                math.log(sub.n), abs=1e-8
            )


class TestSeparabilityProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(2, 4),
        st.integers(0, 2**32 - 1),
        st.tuples(*(st.floats(-5.0, 5.0) for _ in range(3))),
        st.tuples(*(st.floats(0.5, 5.0) for _ in range(3))),
    )
    def test_joint_fit_matches_per_level_fits_on_shared_base(self, m, seed, lo, length):
        # c07's claim on random offset windows: the interact_all likelihood is a
        # sum of per-level blocks over one shared base design
        window = Window(*((a, a + n) for a, n in zip(lo, length)))
        rng = np.random.default_rng(seed)
        counts = rng.integers(15, 40, size=m)
        lo_, hi_ = np.array(window.ranges).T
        xyt = lo_ + rng.random((counts.sum(), 3)) * (hi_ - lo_)
        levels = tuple(f"L{i}" for i in range(m))
        pattern = MarkedPointPattern(window, xyt, np.repeat(np.arange(m), counts), levels)
        terms = (Intercept(), CoordinateMonomial(1, 0, 0))
        res = GridResolution(6, 6, 6)
        joint = fit_multitype(pattern, ModelSpec(terms, multitype_mode=MarkFixedEffects(True)), res)
        rep = build_replicated_scheme(pattern, res)
        base = build_design(rep, ModelSpec(terms))
        y = replicated_responses(rep)
        for i in range(m):
            block = fit_irls(base, y[i], rep.weights_by_level[i])
            assert np.abs(joint.fit.coefficients[2 * i : 2 * i + 2] - block.coefficients).max() <= 1e-6
