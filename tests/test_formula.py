import math

import numpy as np
import pytest

from stppfit import (
    CoordinateMonomial,
    CovariateGrid,
    ExternalCovariate,
    GridResolution,
    Intercept,
    Window,
    parse_log_linear,
    parse_term_list,
)


class TestParseLogLinear:
    def test_basic_expression(self):
        expr = parse_log_linear("4 + 1.2*x - 0.8*t")
        assert expr.monomials == (
            ((0, 0, 0), 4.0),
            ((1, 0, 0), 1.2),
            ((0, 0, 1), -0.8),
        )

    def test_intensity_evaluation(self):
        expr = parse_log_linear("4 + 1.2*x - 0.8*t")
        x, y, t = np.array([0.5]), np.array([0.9]), np.array([0.25])
        want = math.exp(4 + 1.2 * 0.5 - 0.8 * 0.25)
        assert expr.intensity(x, y, t)[0] == pytest.approx(want, rel=1e-15)

    def test_exponents_and_products(self):
        expr = parse_log_linear("2 + 0.5*x^2*y")
        assert expr.monomials == (((0, 0, 0), 2.0), ((2, 1, 0), 0.5))

    def test_repeated_variables_multiply(self):
        expr = parse_log_linear("x*x*t")
        assert expr.monomials == (((2, 0, 1), 1.0),)

    def test_repeated_monomials_merge(self):
        expr = parse_log_linear("1 + 1 + 0.5*x + 0.25*x")
        assert expr.monomials == (((0, 0, 0), 2.0), ((1, 0, 0), 0.75))

    def test_leading_minus(self):
        expr = parse_log_linear("-3 + x")
        assert expr.monomials[0] == ((0, 0, 0), -3.0)

    def test_terms_and_coefficients_align(self):
        expr = parse_log_linear("4 + 1.2*x - 0.8*t")
        terms = expr.terms()
        assert isinstance(terms[0], Intercept)
        assert terms[1] == CoordinateMonomial(1, 0, 0)
        assert terms[2] == CoordinateMonomial(0, 0, 1)
        np.testing.assert_array_equal(expr.coefficients(), [4.0, 1.2, -0.8])

    def test_canonical_roundtrip(self):
        expr = parse_log_linear("4 + 1.2*x - 0.8*t + 0.25*x^2*y")
        again = parse_log_linear(expr.canonical())
        assert again.monomials == expr.monomials

    @pytest.mark.parametrize(
        "bad",
        [
            "z + 1", "4 +", "1.2*", "x^-1", "x^0.5", "", "4 & x",
            "4 + 1.2x - 0.8t", "4 x", "2 3", "1e400 + x",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_log_linear(bad)


class TestParseTermList:
    def test_standard_terms(self):
        terms = parse_term_list("1,x,y,t,x*t")
        assert isinstance(terms[0], Intercept)
        assert terms[1:] == (
            CoordinateMonomial(1, 0, 0),
            CoordinateMonomial(0, 1, 0),
            CoordinateMonomial(0, 0, 1),
            CoordinateMonomial(1, 0, 1),
        )

    def test_exponent_syntax(self):
        (term,) = parse_term_list("x^2*y")
        assert term == CoordinateMonomial(2, 1, 0)

    def test_external_names_resolve(self):
        grid = CovariateGrid(Window.unit_cube(), GridResolution(1, 1, 1), np.array([2.0]))
        ext = ExternalCovariate(grid, "ndvi")
        terms = parse_term_list("1,ndvi", {"ndvi": ext})
        assert terms[1] is ext

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown term 'ndvi'"):
            parse_term_list("1,ndvi")

    def test_numeric_coefficient_rejected(self):
        with pytest.raises(ValueError):
            parse_term_list("1.5*x")

    @pytest.mark.parametrize("bad", ["", " , ", "x*", "x^", "x^2^3"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_term_list(bad)
