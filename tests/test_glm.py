import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stppfit import (
    DesignMatrix,
    FitError,
    GridResolution,
    IrlsConfig,
    PointPattern,
    PredictorOverflowError,
    RankDeficiencyError,
    Window,
    build_scheme,
    fit_irls,
    responses,
    score_and_fisher,
    weighted_poisson_loglik,
)

UNIT = Window.unit_cube()


def reference_loglik(values, y, w, theta):
    """Independent term-by-term evaluation with compensated summation."""
    terms = []
    for i in range(len(y)):
        eta = math.fsum(values[i][j] * theta[j] for j in range(len(theta)))
        terms.append(w[i] * (y[i] * eta - math.exp(eta)) + w[i])
    return math.fsum(terms)


def cubature_problem(n=60, res=5, seed=0, with_slope=False):
    rng = np.random.default_rng(seed)
    pat = PointPattern.from_arrays(UNIT, *rng.random((3, n)))
    scheme = build_scheme(pat, GridResolution(res, res, res))
    y = responses(scheme)
    w = scheme.weights
    cols = [np.ones(scheme.size)]
    names = ["1"]
    if with_slope:
        cols.append(scheme.coords[:, 0])
        names.append("x")
    return DesignMatrix(np.column_stack(cols), tuple(names)), y, w


class TestDesignMatrix:
    def test_caller_array_stays_writeable(self):
        x = np.ones((4, 2))
        design = DesignMatrix(x, ("a", "b"))
        assert x.flags.writeable
        assert not design.values.flags.writeable
        with pytest.raises(ValueError):
            design.values[0, 0] = 2.0


class TestWeightedPoissonLoglik:
    def test_empty_data_at_zero_theta_cancels(self):
        X = DesignMatrix(np.ones((10, 1)), ("1",))
        w = np.full(10, 0.1)
        assert weighted_poisson_loglik(X, np.zeros(10), w, [0.0]) == pytest.approx(0.0, abs=1e-14)

    def test_intercept_closed_form(self):
        # sum w = V, sum w y = n  =>  n log c - c V + V at theta = log c
        X, y, w = cubature_problem(n=40, res=4, seed=1)
        c = 3.7
        got = weighted_poisson_loglik(X, y, w, [math.log(c)])
        n, V = 40.0, 1.0
        assert got == pytest.approx(n * math.log(c) - c * V + V, rel=1e-12)

    def test_matches_independent_reference(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            rows, p = int(rng.integers(5, 40)), int(rng.integers(1, 4))
            values = rng.normal(size=(rows, p))
            names = tuple(f"c{j}" for j in range(p))
            X = DesignMatrix(values, names)
            y = np.where(rng.random(rows) < 0.3, 0.0, rng.gamma(2.0, 2.0, size=rows))
            w = rng.uniform(0.05, 2.0, size=rows)
            theta = rng.normal(scale=0.5, size=p)
            got = weighted_poisson_loglik(X, y, w, theta)
            want = reference_loglik(values, y, w, theta)
            assert got == pytest.approx(want, rel=1e-12)

    def test_overflow_reports_max_linear_predictor(self):
        X = DesignMatrix(np.array([[1.0], [800.0]]), ("z",))
        with pytest.raises(PredictorOverflowError, match="800"):
            weighted_poisson_loglik(X, [0.0, 0.0], [1.0, 1.0], [1.0])


class TestScoreAndFisher:
    def test_gradient_zero_at_theta_zero_intercept_only(self):
        X, y, w = cubature_problem(n=25, res=4, seed=2)
        grad, _ = score_and_fisher(X, y, w, [0.0])
        assert grad[0] == pytest.approx(np.dot(w, y) - w.sum(), rel=1e-12)

    def test_stationarity_at_fitted_theta(self):
        X, y, w = cubature_problem(n=80, res=5, seed=3, with_slope=True)
        res = fit_irls(X, y, w)
        grad, _ = score_and_fisher(X, y, w, res.coefficients)
        assert np.abs(grad).max() <= 1e-8 * w.sum()

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(7)
        X, y, w = cubature_problem(n=50, res=4, seed=4, with_slope=True)
        for _ in range(5):
            theta = rng.normal(scale=0.8, size=2)
            grad, _ = score_and_fisher(X, y, w, theta)
            h = 1e-6
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd = (
                    weighted_poisson_loglik(X, y, w, theta + e)
                    - weighted_poisson_loglik(X, y, w, theta - e)
                ) / (2 * h)
                assert fd == pytest.approx(grad[j], rel=1e-4)

    def test_ridge_gradient_matches_penalized_objective(self):
        X, y, w = cubature_problem(n=50, res=4, seed=5, with_slope=True)
        pen = np.array([0.0, 2.5])
        theta = np.array([0.7, -0.4])
        grad, fisher = score_and_fisher(X, y, w, theta, pen)

        def penalized(th):
            return weighted_poisson_loglik(X, y, w, th) - 0.5 * 2.5 * th[1] ** 2

        h = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (penalized(theta + e) - penalized(theta - e)) / (2 * h)
            assert fd == pytest.approx(grad[j], rel=1e-4)
        assert fisher[1, 1] > fisher[0, 0]  # ridge adds to the penalized diagonal

    def test_wrong_length_theta_names_lengths(self):
        X, y, w = cubature_problem(n=20, res=3, seed=8, with_slope=True)
        with pytest.raises(ValueError, match="theta has length 3, expected 2"):
            score_and_fisher(X, y, w, [0.0, 0.0, 0.0])

    def test_fisher_is_symmetric(self):
        X, y, w = cubature_problem(n=30, res=4, seed=6, with_slope=True)
        _, fisher = score_and_fisher(X, y, w, [0.1, 0.2])
        np.testing.assert_allclose(fisher, fisher.T, atol=0)


class TestFitIrls:
    def test_intercept_only_recovers_log_rate(self):
        X, y, w = cubature_problem(n=100, res=5, seed=10)
        res = fit_irls(X, y, w)
        assert res.converged
        assert res.coefficients[0] == pytest.approx(math.log(100.0), abs=1e-8)
        assert res.iterations == 1  # the start is the exact stationary point

    def test_closed_form_intercept_property(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            rows = int(rng.integers(5, 60))
            w = rng.uniform(0.01, 3.0, size=rows)
            y = np.where(rng.random(rows) < 0.4, 0.0, rng.gamma(2.0, 3.0, size=rows))
            if np.dot(w, y) <= 0:
                continue
            X = DesignMatrix(np.ones((rows, 1)), ("1",))
            res = fit_irls(X, y, w)
            assert res.coefficients[0] == pytest.approx(
                math.log(np.dot(w, y) / w.sum()), abs=1e-10
            )

    def test_all_zero_responses_is_an_error(self):
        X = DesignMatrix(np.ones((12, 1)), ("1",))
        with pytest.raises(FitError, match="empty pattern"):
            fit_irls(X, np.zeros(12), np.full(12, 0.25))

    def test_symmetric_design_gives_zero_slope(self):
        z = np.array([-1.0, -1.0, 1.0, 1.0])
        X = DesignMatrix(np.column_stack([np.ones(4), z]), ("1", "z"))
        y = np.array([4.0, 0.0, 4.0, 0.0])
        w = np.full(4, 0.5)
        res = fit_irls(X, y, w)
        assert res.converged
        assert abs(res.coefficients[1]) < 1e-8

    def test_rank_deficiency_names_a_column(self):
        x = np.linspace(0, 1, 20)
        X = DesignMatrix(np.column_stack([np.ones(20), x, 2 * x]), ("1", "x", "xx"))
        with pytest.raises(RankDeficiencyError, match="linearly dependent"):
            fit_irls(X, np.ones(20), np.ones(20))

    def test_zero_column_rejected(self):
        X = DesignMatrix(np.zeros((5, 1)), ("z",))
        with pytest.raises(RankDeficiencyError):
            fit_irls(X, np.ones(5), np.ones(5))

    def test_more_columns_than_rows_rejected(self):
        X = DesignMatrix(np.random.default_rng(0).normal(size=(2, 3)), ("a", "b", "c"))
        with pytest.raises(RankDeficiencyError):
            fit_irls(X, np.ones(2), np.ones(2))

    def test_non_convergence_returns_flagged_result(self):
        X, y, w = cubature_problem(n=120, res=5, seed=12, with_slope=True)
        res = fit_irls(X, y, w, IrlsConfig(max_iterations=1))
        assert not res.converged
        assert res.iterations == 1

    def test_deviance_trace_non_increasing(self):
        X, y, w = cubature_problem(n=90, res=5, seed=13, with_slope=True)
        res = fit_irls(X, y, w)
        trace = res.deviance_trace
        assert len(trace) >= 2
        for a, b in zip(trace, trace[1:]):
            assert b <= a + 1e-12 * max(1.0, abs(a))

    def test_loglik_matches_public_evaluation(self):
        X, y, w = cubature_problem(n=70, res=5, seed=14, with_slope=True)
        res = fit_irls(X, y, w)
        assert res.log_likelihood_approx == weighted_poisson_loglik(X, y, w, res.coefficients)

    def test_covariance_is_inverse_fisher(self):
        X, y, w = cubature_problem(n=70, res=5, seed=15, with_slope=True)
        res = fit_irls(X, y, w)
        _, fisher = score_and_fisher(X, y, w, res.coefficients)
        np.testing.assert_allclose(res.covariance @ fisher, np.eye(2), atol=1e-8)
        assert np.abs(res.covariance - res.covariance.T).max() <= 1e-10

    def test_ridge_shrinks_masked_coefficients_monotonically(self):
        X, y, w = cubature_problem(n=80, res=5, seed=16, with_slope=True)
        norms = []
        for lam in (0.0, 0.1, 1.0, 10.0, 1000.0):
            res = fit_irls(X, y, w, penalty=[0.0, lam])
            norms.append(abs(res.coefficients[1]))
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-12

    def test_ridge_score_equation_holds(self):
        X, y, w = cubature_problem(n=80, res=5, seed=17, with_slope=True)
        pen = np.array([0.0, 3.0])
        res = fit_irls(X, y, w, penalty=pen)
        grad, _ = score_and_fisher(X, y, w, res.coefficients, pen)
        assert np.abs(grad).max() <= 1e-8 * w.sum()


class TestFitIrlsProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 4),
        ridge=st.booleans(),
        max_iterations=st.sampled_from([1, 2, 100]),
    )
    def test_result_agrees_with_public_kernels(self, seed, p, ridge, max_iterations):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(p + 3, 60))
        values = np.column_stack([np.ones(rows), rng.normal(size=(rows, p - 1))])
        X = DesignMatrix(values, tuple(f"c{j}" for j in range(p)))
        y = np.where(rng.random(rows) < 0.3, 0.0, rng.gamma(2.0, 2.0, size=rows))
        y[:p] += 1.0
        w = rng.uniform(0.05, 2.0, size=rows)
        pen = (
            float(rng.uniform(0.1, 5.0)) * rng.integers(0, 2, size=p).astype(float)
            if ridge
            else None
        )
        res = fit_irls(X, y, w, IrlsConfig(max_iterations=max_iterations), pen)
        assert res.deviance == res.deviance_trace[-1]
        assert res.log_likelihood_approx == weighted_poisson_loglik(X, y, w, res.coefficients)
        grad, _ = score_and_fisher(X, y, w, res.coefficients, pen)
        assert res.converged == (float(np.abs(grad).max()) <= 1e-8 * w.sum())


class TestValidation:
    def test_duplicate_column_names_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            DesignMatrix(np.ones((3, 2)), ("a", "a"))

    def test_nonfinite_design_entry_named(self):
        vals = np.ones((3, 2))
        vals[1, 1] = np.nan
        with pytest.raises(ValueError, match="row 1"):
            DesignMatrix(vals, ("a", "b"))

    def test_zero_columns_rejected(self):
        with pytest.raises(ValueError):
            DesignMatrix(np.ones((3, 0)), ())

    def test_negative_response_rejected(self):
        X = DesignMatrix(np.ones((2, 1)), ("1",))
        with pytest.raises(ValueError, match="nonnegative"):
            fit_irls(X, [-1.0, 1.0], [1.0, 1.0])

    def test_nonpositive_weight_rejected(self):
        X = DesignMatrix(np.ones((2, 1)), ("1",))
        with pytest.raises(ValueError, match="positive"):
            fit_irls(X, [1.0, 1.0], [0.0, 1.0])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": 0},
            {"tolerance": 0.0},
        ],
    )
    def test_irls_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            IrlsConfig(**kwargs)

    def test_irls_config_holds_only_iteration_control(self):
        assert [f.name for f in dataclasses.fields(IrlsConfig)] == ["max_iterations", "tolerance"]

    @pytest.mark.parametrize(
        "penalty, message",
        [
            ([0.0, -1.0], "nonnegative"),
            ([0.0, np.inf], "finite"),
            ([0.0, np.nan], "finite"),
            ([1.0], "penalty has length 1, expected 2"),
        ],
        ids=["negative", "infinite", "nan", "wrong-length"],
    )
    def test_penalty_checked_at_use(self, penalty, message):
        X = DesignMatrix(np.column_stack([np.ones(5), np.arange(5.0)]), ("1", "x"))
        with pytest.raises(ValueError, match=message):
            fit_irls(X, np.ones(5), np.ones(5), penalty=penalty)
        with pytest.raises(ValueError, match=message):
            score_and_fisher(X, np.ones(5), np.ones(5), [0.0, 0.0], penalty)
