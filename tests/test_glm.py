import dataclasses
import math
import re
import sys
import unittest.mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from stppfit import (
    DesignMatrix,
    FitError,
    FitResult,
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
import stppfit.glm
from stppfit.glm import MAX_LINEAR_PREDICTOR, _check_rank, _overflows

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


def names(prefix, count):
    return tuple(f"{prefix}{j}" for j in range(count))


class TestBlockDiagonalDesign:
    """``DesignMatrix(values, names, levels)``: the block-diagonal design I_levels kron values."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 200),
        p=st.integers(1, 8),
        m=st.integers(1, 12),
    )
    def test_products_match_dense_oracle(self, seed, k, p, m):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(k, p))
        X = DesignMatrix(base, names("c", p), m)
        dense = np.kron(np.eye(m), base)
        assert (X.n_rows, X.n_cols) == dense.shape
        theta = rng.normal(size=m * p)
        v = rng.uniform(0.01, 5.0, size=m * k)
        if m == 1:
            # one level is B itself: the dense products, bit for bit
            assert np.array_equal(X.dot(theta), base @ theta)
            assert np.array_equal(X.tdot(v), base.T @ v)
            assert np.array_equal(X.gram(v), (base * v[:, None]).T @ base)
            return
        assert X.ones_column() is None
        # each entry to 1e-12 of the sum of its terms' magnitudes
        mag = np.abs(dense)
        assert np.all(np.abs(X.dot(theta) - dense @ theta) <= 1e-12 * (mag @ np.abs(theta)))
        assert np.all(np.abs(X.tdot(v) - dense.T @ v) <= 1e-12 * (mag.T @ v))
        want = (dense * v[:, None]).T @ dense
        gram = X.gram(v)
        assert np.all(np.abs(gram - want) <= 1e-12 * ((mag * v[:, None]).T @ mag))
        # both triangles of each block come from the one pair-product sum
        assert np.array_equal(gram, gram.T)

    @pytest.fixture
    def pair_builds(self, monkeypatch):
        """The designs whose pair-product table gets built, one entry per build."""
        prop = DesignMatrix.__dict__["_pair_products"]
        build, calls = prop.func, []
        monkeypatch.setattr(prop, "func", lambda design: calls.append(design) or build(design))
        return calls

    def test_one_level_never_builds_the_pair_table(self, pair_builds):
        X, y, w = cubature_problem(n=60, res=4, seed=8, with_slope=True)
        X.gram(w)
        fit_irls(X, y, w)
        assert pair_builds == []

    def test_pair_table_is_built_once_per_design(self, pair_builds):
        rng = np.random.default_rng(9)
        X = DesignMatrix(rng.normal(size=(40, 3)), names("c", 3), 3)
        v = rng.uniform(0.1, 2.0, size=X.n_rows)
        first = X.gram(v)
        for _ in range(3):
            assert np.array_equal(X.gram(v), first)
        assert pair_builds == [X]

    def test_one_level_keeps_the_base_intercept(self):
        values = np.column_stack([np.ones(4), np.arange(4.0)])
        assert DesignMatrix(values, ("1", "x")).ones_column() == 0
        assert DesignMatrix(values, ("1", "x"), 2).ones_column() is None

    @pytest.mark.parametrize(
        "levels, column_names, message",
        [
            (0, ("u", "v"), "positive integer"),
            (2, ("u", "v", "w", "z"), "one column name"),
            (2, ("u", "u"), "distinct"),
            (1.5, ("u", "v"), "positive integer"),
        ],
    )
    def test_validation(self, levels, column_names, message):
        with pytest.raises(ValueError, match=message):
            DesignMatrix(np.ones((3, 2)) + np.eye(3, 2), column_names, levels)

    def test_rank_deficient_base_names_the_base_column(self):
        x = np.linspace(0, 1, 20)
        X = DesignMatrix(np.column_stack([np.ones(20), x, 2 * x]), ("1", "x", "xx"), 3)
        with pytest.raises(RankDeficiencyError, match=r"^column '(x|xx)' is linearly dependent"):
            fit_irls(X, np.ones(60), np.ones(60))


class TestOverflows:
    """``_overflows(eta)`` is ``max |eta| > MAX_LINEAR_PREDICTOR`` without the |eta| temporary."""

    EDGES = [0.0, 700.0, -700.0, np.nextafter(700.0, np.inf), -np.nextafter(700.0, np.inf),
             np.inf, -np.inf, np.nan]

    @staticmethod
    def reference(eta):
        return eta.size > 0 and bool(np.abs(eta).max() > MAX_LINEAR_PREDICTOR)

    @pytest.mark.parametrize("eta", [[]] + [[e] for e in EDGES] + [[np.nan, np.inf], [-np.inf, np.nan],
                                                                    [1.0, -np.nextafter(700.0, np.inf)]])
    def test_edges(self, eta):
        eta = np.array(eta, dtype=float)
        assert _overflows(eta) == self.reference(eta)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(EDGES), st.floats(-1e3, 1e3), st.floats()), max_size=12))
    def test_matches_abs_max(self, values):
        eta = np.array(values, dtype=float)
        assert _overflows(eta) == self.reference(eta)


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

    def test_iterations_are_the_accepted_steps_of_the_deviance_trace(self):
        fit = FitResult(coefficients=[0.0], covariance=[[1.0]], deviance_trace=[3.0, 2.0, 1.5],
                        log_likelihood_approx=-1.0, converged=True)
        assert fit.iterations == 2 and fit.deviance == 1.5
        with pytest.raises(TypeError, match="iterations"):
            FitResult(coefficients=[0.0], covariance=[[1.0]], deviance_trace=[1.0],
                      log_likelihood_approx=-1.0, iterations=0, converged=True)

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
        m=st.sampled_from([1, 2, 3]),
    )
    def test_result_agrees_with_public_kernels(self, seed, p, ridge, max_iterations, m):
        # m levels: the design I_m kron base, which for m > 1 is checked
        # against the same fit on its dense oracle
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(p + 3, 60))
        values = np.column_stack([np.ones(rows), rng.normal(size=(rows, p - 1))])
        X = DesignMatrix(values, names("c", p), m)
        y = np.where(rng.random(m * rows) < 0.3, 0.0, rng.gamma(2.0, 2.0, size=m * rows))
        y.reshape(m, rows)[:, :p] += 1.0
        w = rng.uniform(0.05, 2.0, size=m * rows)
        pen = (
            float(rng.uniform(0.1, 5.0)) * rng.integers(0, 2, size=m * p).astype(float)
            if ridge
            else None
        )
        cfg = IrlsConfig(max_iterations=max_iterations)
        res = fit_irls(X, y, w, cfg, pen)
        assert res.deviance == res.deviance_trace[-1]
        assert res.iterations == len(res.deviance_trace) - 1 <= max_iterations
        assert res.log_likelihood_approx == weighted_poisson_loglik(X, y, w, res.coefficients)
        grad, fisher = score_and_fisher(X, y, w, res.coefficients, pen)
        assert res.converged == (float(np.abs(grad).max()) <= 1e-8 * w.sum())
        # the covariance has the bits of the multi-column solve against the identity
        inv = scipy.linalg.cho_solve(scipy.linalg.cho_factor(fisher), np.eye(m * p))
        assert res.covariance.tobytes() == (0.5 * (inv + inv.T)).tobytes()
        if m > 1:
            dense = fit_irls(DesignMatrix(np.kron(np.eye(m), values), names("b", m * p)), y, w, cfg, pen)
            assert res.iterations == dense.iterations
            assert len(res.deviance_trace) == len(dense.deviance_trace)
            np.testing.assert_allclose(res.coefficients, dense.coefficients, rtol=0, atol=1e-9)
            np.testing.assert_allclose(res.covariance, dense.covariance, rtol=0, atol=1e-9)


class TestScipySizedCalls:
    """``fit_irls`` hands scipy only p x p matrices and 1-D right-hand sides;
    these properties pin that the results are those of the larger calls."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 60))
    def test_inverse_by_unit_vectors_matches_multi_column_solve(self, seed, p):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(p + 5, p))
        scales = 10.0 ** rng.uniform(-6.0, 6.0, size=p)
        factor = scipy.linalg.cho_factor((a.T @ a) * np.outer(scales, scales))
        by_column = np.column_stack([scipy.linalg.cho_solve(factor, e) for e in np.eye(p)])
        assert by_column.tobytes() == scipy.linalg.cho_solve(factor, np.eye(p)).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 8),
        extra_rows=st.integers(0, 60),
        plant=st.booleans(),
    )
    def test_rank_check_on_r_matches_pivoted_qr_of_the_base(self, seed, p, extra_rows, plant):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(p + extra_rows, p)) * 10.0 ** rng.uniform(-3.0, 3.0, size=p)
        if plant and p >= 3:
            # one column an exact combination of two others, with continuous
            # coefficients so that no two pivot candidates tie
            j, i, k = rng.permutation(p)[:3]
            a, b = rng.uniform(0.5, 2.0, size=2) * rng.choice([-1.0, 1.0], size=2)
            values[:, j] = a * values[:, i] + b * values[:, k]
        cols = names("c", p)
        # the rank check on B itself: scipy's pivoted QR of the whole K x p base
        _, r, piv = scipy.linalg.qr(values, mode="raw", pivoting=True)
        diag = np.abs(np.diag(r))
        bad = diag <= 1e-10 * diag[0]
        want = cols[piv[int(np.argmax(bad))]] if bad.any() else None
        try:
            _check_rank(DesignMatrix(values, cols))
            got = None
        except RankDeficiencyError as exc:
            got = str(exc).split("'")[1]
        assert got == want
        if plant and p >= 3:
            assert got is not None

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 8),
        extra_rows=st.integers(0, 60),
        plant=st.booleans(),
        block=st.integers(1, 9),
    )
    def test_rank_check_in_row_blocks_matches_pivoted_qr_of_the_base(self, seed, p, extra_rows, plant, block):
        # the property above, with B cut into blocks of 1-9 rows, fewer than p rows included
        with unittest.mock.patch.object(stppfit.glm, "_RANK_BLOCK_ROWS", block):
            self.test_rank_check_on_r_matches_pivoted_qr_of_the_base.hypothesis.inner_test(
                self, seed, p, extra_rows, plant
            )

    @pytest.mark.parametrize("block", range(1, 10))
    def test_rank_check_reads_the_last_row_block(self, block):
        # column "b" is zero but in the last row, so only the last block, often a
        # partial one, shows that B has full rank
        values = np.zeros((10, 2))
        values[:, 0], values[-1, 1] = 1.0, 1.0
        with unittest.mock.patch.object(stppfit.glm, "_RANK_BLOCK_ROWS", block):
            _check_rank(DesignMatrix(values, ("a", "b")))
            values[-1, 1] = 0.0
            with pytest.raises(RankDeficiencyError, match="column 'b'"):
                _check_rank(DesignMatrix(values, ("a", "b")))


class TestLapackWrappers:
    """glm calls scipy's compiled LAPACK without ``scipy.linalg``; its wrappers pass
    the routines the arguments scipy's functions pass, so they give the same bytes."""

    @staticmethod
    def spd(seed, p):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(p + 5, p))
        scales = 10.0 ** rng.uniform(-6.0, 6.0, size=p)
        return (a.T @ a) * np.outer(scales, scales), rng

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 40))
    def test_cholesky_factor_and_solves_match_scipy(self, seed, p):
        a, rng = self.spd(seed, p)
        c, lower = scipy.linalg.cho_factor(a)
        factor = stppfit.glm._cho_factor(a)
        assert not lower and factor.dtype == c.dtype and factor.shape == c.shape
        assert factor.tobytes() == c.tobytes()
        for b in (rng.normal(size=p) * 10.0 ** rng.uniform(-6.0, 6.0), np.eye(p)[-1], np.eye(p)):
            x = stppfit.glm._cho_solve(factor, b)
            want = scipy.linalg.cho_solve((c, False), b)
            assert x.shape == want.shape and x.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 12),
        rows=st.integers(1, 30),
        plant=st.booleans(),
    )
    def test_pivoted_qr_matches_scipy(self, seed, p, rows, plant):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(rows, p)) * 10.0 ** rng.uniform(-6.0, 6.0, size=p)
        if plant and p >= 3:  # one column an exact combination of two others
            j, i, k = rng.permutation(p)[:3]
            a[:, j] = 1.5 * a[:, i] - 0.75 * a[:, k]
        (_, _), r_want, piv_want = scipy.linalg.qr(a, mode="raw", pivoting=True)
        r, piv = stppfit.glm._pivoted_qr(a)
        assert r.shape == r_want.shape and r.tobytes() == r_want.tobytes()
        assert piv.dtype == piv_want.dtype and piv.tobytes() == piv_want.tobytes()

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_not_positive_definite_raises_linalg_error(self, p):
        a, _ = self.spd(p, p)
        a[-1, -1] = -1.0
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.cho_factor(a)
        with pytest.raises(np.linalg.LinAlgError, match=f"{p}-th leading minor"):
            stppfit.glm._cho_factor(a)

    def test_nan_raises_value_error(self):
        a, _ = self.spd(0, 3)
        factor = stppfit.glm._cho_factor(a)
        bad = a.copy()
        bad[1, 2] = np.nan
        for call, args in [
            (scipy.linalg.cho_factor, (bad,)),
            (stppfit.glm._cho_factor, (bad,)),
            (scipy.linalg.cho_solve, ((factor, False), np.array([1.0, np.nan, 0.0]))),
            (stppfit.glm._cho_solve, (factor, np.array([1.0, np.nan, 0.0]))),
            (stppfit.glm._cho_solve, (bad, np.ones(3))),
            (lambda m: scipy.linalg.qr(m, mode="raw", pivoting=True), (bad,)),
            (stppfit.glm._pivoted_qr, (bad,)),
        ]:
            with pytest.raises(ValueError, match="infs or NaNs"):
                call(*args)

    def test_a_missing_extension_names_the_path_searched(self, monkeypatch, tmp_path):
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(scipy, "__file__", str(tmp_path / "scipy" / "__init__.py"))
        with pytest.raises(ImportError, match=re.escape(f"not at {tmp_path / 'scipy' / 'linalg' / '_flapack'}")):
            stppfit.glm._flapack()


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
